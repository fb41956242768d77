(* --- CPA over the radio engine ---------------------------------------- *)

type state = {
  announcer : Announcer.t;  (** my committed value, and its announcements *)
  is_liar : bool;
  peer_by_slot : Node.id option array;  (** listening slot -> decodable peer *)
  mutable vouches : (string * Node.id list) list;
      (** candidate value -> distinct vouching neighbours *)
}

type ctx = {
  tolerance : int;
  topology : Topology.t;
  schedule : Schedule.t;
  source : Node.id;
  states : (Node.id, state) Hashtbl.t;
}

let make_ctx ~tolerance ~topology ~source =
  {
    tolerance;
    topology;
    schedule = Announcer.schedule topology ~source;
    source;
    states = Hashtbl.create 64;
  }

let schedule ctx = ctx.schedule
let cycle_rounds ctx = Announcer.cycle_rounds ctx.schedule

(* Derived from the states.  The count includes construction-time
   commitments (source, liars) — a constant offset the stall detector,
   which only watches for change, cannot see.  The fold is a commutative
   count, so table order does not matter. *)
let progress ctx =
  Hashtbl.fold
    (fun _ s acc -> if Announcer.value s.announcer <> None then acc + 1 else acc)
    ctx.states 0

type role = Source of Bitvec.t | Relay | Liar of Bitvec.t

(* CPA assumes authenticated single-hop channels.  Over the radio that
   authentication is positional: each slot of the TDMA cycle has at most
   one owner among any receiver's decodable neighbours (both schedulers
   guarantee it — two decode neighbours of the same node are within two
   hops of each other, hence conflict), so a clear packet in slot [s] can
   only have come from the receiver's unique slot-[s] neighbour.  A
   Byzantine node can therefore lie about its own commitment but cannot
   impersonate anyone else, which is exactly CPA's fault model. *)
let machine ctx id role =
  let cyc = Schedule.cycle ctx.schedule in
  let peer_by_slot = Array.make cyc None in
  Graph.iter_rx (Topology.graph ctx.topology) id (fun p ->
      let slot = Schedule.slot_of ctx.schedule p in
      if peer_by_slot.(slot) = None then peer_by_slot.(slot) <- Some p);
  let a =
    Announcer.create ctx.schedule id (match role with Source m | Liar m -> Some m | Relay -> None)
  in
  let s =
    {
      announcer = a;
      is_liar = (match role with Liar _ -> true | Source _ | Relay -> false);
      peer_by_slot;
      vouches = [];
    }
  in
  Hashtbl.replace ctx.states id s;
  let vouch voucher value =
    let key = Bitvec.to_string value in
    let entry = match List.assoc_opt key s.vouches with Some e -> e | None -> [] in
    if not (List.mem voucher entry) then begin
      let entry = voucher :: entry in
      s.vouches <- (key, entry) :: List.remove_assoc key s.vouches;
      if List.length entry >= ctx.tolerance + 1 then Announcer.hold a value
    end
  in
  let on_clear round value =
    if (not s.is_liar) && Announcer.value a = None && Schedule.phase_of_round round = 0 then begin
      let slot = Schedule.active_slot ctx.schedule ~interval:(Schedule.interval_of_round round) in
      (* Attribute by slot ownership; a packet in a slot none of my
         decodable neighbours owns is spoofed air and carries no
         authentication, so it is dropped. *)
      match s.peer_by_slot.(slot) with
      | Some p when p = ctx.source -> Announcer.hold a value
      | Some p -> vouch p value
      | None -> ()
    end
  in
  let observe round obs =
    match obs with
    | Channel.Clear (Msg.Packet value) -> on_clear round value
    | Channel.Clear Msg.Blip | Channel.Silence | Channel.Busy -> ()
  in
  let observe_packed round code slots =
    if Channel.Packed.is_clear code then begin
      match slots.Engine.payloads.(Channel.Packed.slot code) with
      | Msg.Packet value -> on_clear round value
      | Msg.Blip -> ()
    end
  in
  {
    Engine.act = Announcer.act a;
    observe;
    observe_packed = Some observe_packed;
    delivered = (fun () -> Announcer.value a);
    next_active = Announcer.next_active a;
  }

(* --- synchronous reference baseline ----------------------------------- *)

module Reference = struct
  type config = { radius : float; tolerance : int }
  type role = Source | Honest | Liar of Bitvec.t

  type result = {
    rounds : int;
    committed : Bitvec.t option array;
    messages : int;
  }

  (* Evidence a node holds about one candidate value. *)
  type vouch = { voucher : Node.id; value : Bitvec.t }

  let run config ~topology ~source ~message ~(roles : role array) ~max_rounds =
    let n = Topology.size topology in
    if Array.length roles <> n then
      invalid_arg "Certified_propagation.Reference.run: roles size mismatch";
    let committed = Array.make n None in
    let vouches : vouch list array = Array.make n [] in
    let announce_queue = Queue.create () in
    let messages = ref 0 in
    let commit i value round_commits =
      if committed.(i) = None then begin
        committed.(i) <- Some value;
        Queue.add i round_commits
      end
    in
    (* Round 0: the source announces; liars are born "committed" to their
       fake value and announce alongside it. *)
    let pending = Queue.create () in
    committed.(source) <- Some message;
    Queue.add source pending;
    Array.iteri
      (fun i (role : role) ->
        match role with
        | Liar fake ->
          committed.(i) <- Some fake;
          Queue.add i pending
        | Source | Honest -> ())
      roles;
    let quorum_commit i =
      if committed.(i) = None then begin
        (* Group the vouches by value and apply the common-neighbourhood
           quorum rule. *)
        let values =
          List.sort_uniq String.compare (List.map (fun v -> Bitvec.to_string v.value) vouches.(i))
        in
        let decide value_str =
          let items =
            List.filter_map
              (fun v ->
                if Bitvec.to_string v.value = value_str then
                  Some
                    {
                      Voting.origin = (v.voucher, 0);
                      value = true;
                      points = [ Topology.position topology v.voucher ];
                    }
                else None)
              vouches.(i)
          in
          Voting.quorum ~radius:config.radius ~need:(config.tolerance + 1) ~value:true items
        in
        match List.find_opt decide values with
        | Some value_str -> Some (Bitvec.of_string value_str)
        | None -> None
      end
      else None
    in
    let round = ref 0 in
    let continue = ref true in
    while !continue && !round < max_rounds do
      (* Deliver every queued announcement reliably to all decode
         neighbours, attributed to its true sender. *)
      Queue.transfer pending announce_queue;
      let round_commits = Queue.create () in
      let any_message = not (Queue.is_empty announce_queue) in
      while not (Queue.is_empty announce_queue) do
        let sender = Queue.pop announce_queue in
        match committed.(sender) with
        | None -> ()
        | Some value ->
          incr messages;
          Graph.iter_rx (Topology.graph topology) sender (fun receiver ->
              (* Direct reception from the source is authenticated by the
                 model itself. *)
              if receiver <> source then begin
                if sender = source then commit receiver value round_commits
                else begin
                  let is_liar = match roles.(receiver) with Liar _ -> true | _ -> false in
                  if not is_liar then begin
                    vouches.(receiver) <- { voucher = sender; value } :: vouches.(receiver);
                    match quorum_commit receiver with
                    | Some decided -> commit receiver decided round_commits
                    | None -> ()
                  end
                end
              end)
      done;
      Queue.transfer round_commits pending;
      incr round;
      if (not any_message) && Queue.is_empty pending then continue := false
    done;
    { rounds = !round; committed; messages = !messages }
end
