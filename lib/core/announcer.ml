let slot_rounds = 6
let repeats = 3
let conflict_factor = 3.0

let schedule topology ~source =
  if Topology.is_geometric topology then
    Schedule.for_nodes topology ~conflict_range:(conflict_factor *. Topology.rx_reach topology)
      ~source
  else Schedule.for_graph topology ~source

let cycle_rounds schedule = Schedule.cycle schedule * slot_rounds

type t = {
  my_slot : int;
  cycle : int;
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
      my_slot = Schedule.slot_of schedule id;
      cycle = Schedule.cycle schedule;
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
    if round mod slot_rounds = 0 && round / slot_rounds mod t.cycle = t.my_slot && t.sent < repeats
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
      let q = (round + slot_rounds - 1) / slot_rounds in
      let j = q + ((((t.my_slot - q) mod t.cycle) + t.cycle) mod t.cycle) in
      j * slot_rounds
    end
