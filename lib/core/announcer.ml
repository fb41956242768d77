let repeats = 3
let conflict_factor = 3.0

let schedule topology ~source =
  if Topology.is_geometric topology then
    Schedule.for_nodes topology ~conflict_range:(conflict_factor *. Topology.rx_reach topology)
      ~source
  else Schedule.for_graph topology ~source

let cycle_rounds schedule = Schedule.cycle schedule * Schedule.rounds_per_interval

type t = {
  schedule : Schedule.t;
  my_slot : int;
  mutable value : Bitvec.t option;
  mutable sent : int;
  mutable packet : Msg.t Engine.action;
      (** the [Transmit] action, allocated once when the value arrives;
          [Silent] until then *)
}

let hold t value =
  if t.value = None then begin
    t.value <- Some value;
    t.packet <- Engine.Transmit (Msg.Packet value)
  end

let create schedule id value =
  let t =
    {
      schedule;
      my_slot = Schedule.slot_of schedule id;
      value = None;
      sent = 0;
      packet = Engine.Silent;
    }
  in
  Option.iter (hold t) value;
  t

let value t = t.value

let act t round =
  (* The packet occupies a whole slot; it goes on the air in the slot's
     first round. *)
  match t.packet with
  | Engine.Silent -> Engine.Silent
  | Engine.Transmit _ as tx ->
    if
      Schedule.phase_of_round round = 0
      && Schedule.active_slot t.schedule ~interval:(Schedule.interval_of_round round) = t.my_slot
      && t.sent < repeats
    then begin
      t.sent <- t.sent + 1;
      tx
    end
    else Engine.Silent

let next_active t round =
  match t.value with
  | None -> max_int
  | Some _ ->
    if t.sent >= repeats then max_int
    else begin
      (* The first interval starting at or after [round], then the first
         of mine from there. *)
      let first = Schedule.interval_of_round (round + Schedule.rounds_per_interval - 1) in
      let cycle = Schedule.cycle t.schedule in
      let wait = (t.my_slot - Schedule.active_slot t.schedule ~interval:first + cycle) mod cycle in
      Schedule.first_round_of_interval (first + wait)
    end
