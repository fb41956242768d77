type config = {
  radius : float;
  tolerance : int;
  msg_len : int;
  coord_step : float;
  heard_relay_limit : int option;
}

let default_config ~radius ~tolerance ~msg_len =
  { radius; tolerance; msg_len; coord_step = 0.5; heard_relay_limit = None }

type peer = {
  peer_id : Node.id;
  peer_pos : Point.t;
  stream : One_hop.Receiver.t;
  mutable parsed : int;  (** stream bits consumed by the frame parser *)
  mutable poisoned : bool;  (** an invalid frame appeared: stop parsing *)
}

type state = {
  id : Node.id;
  pos : Point.t;
  my_slot : int;
  relay_heard : bool;
  committed : Buffer.t;
  sender : One_hop.Sender.t;
  peers : peer array;  (** every sensed peer, in sensed order *)
  peer_by_slot : peer option array;  (** listening slot -> peer, O(1) *)
  evidence : Voting.Index.t array;
  source_bits : Buffer.t;  (** bits received directly from the source *)
  heard_relayed : int array;
  enqueue_commits : bool;  (** sources stream SOURCE frames instead *)
  two_bit : Two_bit.t;  (** this interval's part, re-armed in place *)
  mutable rx_peer : peer option;  (** the peer listened to while receiving *)
  mutable cur_interval : int;
}

type ctx = {
  config : config;
  topology : Topology.t;
  schedule : Schedule.t;
  source : Node.id;
  codec : Frame.codec;
  states : state option array;  (** by node id: the last machine built for it *)
  progress : int array;
      (** by node id: committed bits plus stream bits received, kept in
          O(1) per change by the node's own machine *)
}

let make_ctx config ~topology ~source =
  (* Geometric topologies keep the spatial conflict colouring; an explicit
     graph has no distances to colour by, so conflicts are read off the
     decode graph itself (shared-receiver = within two hops). *)
  let schedule =
    if Topology.is_geometric topology then begin
      let conflict_range = max (3.0 *. config.radius) (2.0 *. Topology.sense_reach topology) in
      Schedule.for_nodes topology ~conflict_range ~source
    end
    else Schedule.for_graph topology ~source
  in
  let codec =
    Frame.codec ~msg_len:config.msg_len
      ~coord_range:(Topology.sense_reach topology)
      ~coord_step:config.coord_step
  in
  let n = Topology.size topology in
  {
    config;
    topology;
    schedule;
    source;
    codec;
    states = Array.make n None;
    progress = Array.make n 0;
  }

let schedule ctx = ctx.schedule

type role = Source of Bitvec.t | Relay | Liar of Bitvec.t

let committed_len s = Buffer.length s.committed
let committed_bit s i = Buffer.nth s.committed i = '1'

let push_frame ctx s frame =
  Bitvec.fold_left (fun () bit -> One_hop.Sender.push s.sender bit) () (Frame.encode ctx.codec frame)

let add_committed ctx s bit =
  Buffer.add_char s.committed (if bit then '1' else '0');
  ctx.progress.(s.id) <- ctx.progress.(s.id) + 1

let commit_bit ctx s bit =
  let index = committed_len s in
  add_committed ctx s bit;
  if s.enqueue_commits then push_frame ctx s (Frame.Commit { index; value = bit })

let rec try_commit ctx s =
  let c = committed_len s in
  if c < ctx.config.msg_len then begin
    if Buffer.length s.source_bits > c then begin
      (* Directly from the source: authenticated by Theorem 2. *)
      commit_bit ctx s (Buffer.nth s.source_bits c = '1');
      try_commit ctx s
    end
    else begin
      let index = s.evidence.(c) in
      (* The quorum answer is a pure function of the evidence set: a clean
         index cannot have changed its mind since the last scan. *)
      if Voting.Index.dirty index then begin
        Voting.Index.clear_dirty index;
        let need = ctx.config.tolerance + 1 in
        let decide value =
          if Voting.Index.decide index ~radius:ctx.config.radius ~need ~value then Some value
          else None
        in
        match (match decide true with Some v -> Some v | None -> decide false) with
        | Some v ->
          commit_bit ctx s v;
          try_commit ctx s
        | None -> ()
      end
    end
  end

let add_evidence s index item = Voting.Index.add s.evidence.(index) item

let handle_frame ctx s peer frame =
  match frame with
  | Frame.Source value ->
    (* SOURCE frames are only meaningful from the source's own slot. *)
    if peer.peer_id = ctx.source then Buffer.add_char s.source_bits (if value then '1' else '0')
  | Frame.Commit { index; value } ->
    let origin = Frame.snap ctx.codec peer.peer_pos in
    add_evidence s index { Voting.origin; value; points = [ peer.peer_pos ] };
    let under_cap =
      match ctx.config.heard_relay_limit with
      | None -> true
      | Some cap -> s.heard_relayed.(index) < cap
    in
    if s.relay_heard && under_cap then begin
      s.heard_relayed.(index) <- s.heard_relayed.(index) + 1;
      let ox, oy = origin and mx, my = Frame.snap ctx.codec s.pos in
      push_frame ctx s (Frame.Heard { index; value; cause = (ox - mx, oy - my) })
    end
  | Frame.Heard { index; value; cause = dx, dy } ->
    let wx, wy = Frame.snap ctx.codec peer.peer_pos in
    let origin = (wx + dx, wy + dy) in
    add_evidence s index
      { Voting.origin; value; points = [ peer.peer_pos; Frame.lattice_point ctx.codec origin ] }

(* Consume complete frames from a peer's stream. *)
let parse_frames ctx s peer =
  let continue = ref (not peer.poisoned) in
  while !continue do
    let available = One_hop.Receiver.received peer.stream - peer.parsed in
    if available < 2 then continue := false
    else begin
      let len =
        Frame.length_of_tag_bits ctx.codec
          (One_hop.Receiver.get peer.stream peer.parsed)
          (One_hop.Receiver.get peer.stream (peer.parsed + 1))
      in
      if len < 0 then begin
        (* Gibberish can only come from a Byzantine slot owner; there is no
           way to resynchronise, so stop listening to this peer. *)
        peer.poisoned <- true;
        continue := false
      end
      else if available < len then continue := false
      else begin
        let bits = Bitvec.init len (fun i -> One_hop.Receiver.get peer.stream (peer.parsed + i)) in
        peer.parsed <- peer.parsed + len;
        match Frame.decode ctx.codec bits with
        | Some frame -> handle_frame ctx s peer frame
        | None -> peer.poisoned <- true
      end
    end
  done;
  try_commit ctx s

(* --- interval roles -------------------------------------------------- *)

let setup_interval ctx s interval =
  s.cur_interval <- interval;
  let slot = Schedule.active_slot ctx.schedule ~interval in
  if slot = s.my_slot then One_hop.Sender.arm s.sender s.two_bit
  else begin
    match s.peer_by_slot.(slot) with
    | Some _ as p ->
      s.rx_peer <- p;
      Two_bit.receive s.two_bit
    | None -> Two_bit.idle s.two_bit
  end

let finish_interval ctx s =
  let tb = s.two_bit in
  if Two_bit.succeeded tb then begin
    if Two_bit.sending tb then One_hop.Sender.advance s.sender
    else
      match s.rx_peer with
      | Some peer ->
        let before = One_hop.Receiver.received peer.stream in
        One_hop.Receiver.push_two_bit peer.stream ~parity:(Two_bit.bit1 tb) ~data:(Two_bit.bit2 tb);
        ctx.progress.(s.id) <- ctx.progress.(s.id) + One_hop.Receiver.received peer.stream - before;
        parse_frames ctx s peer
      | None -> ()
  end

let tx_blip = Engine.Transmit Msg.Blip

let act ctx s round =
  let interval = Schedule.interval_of_round round in
  let phase = Schedule.phase_of_round round in
  if interval <> s.cur_interval then setup_interval ctx s interval;
  if Two_bit.act s.two_bit ~phase then tx_blip else Engine.Silent

let observe_activity ctx s round activity =
  let interval = Schedule.interval_of_round round in
  let phase = Schedule.phase_of_round round in
  if interval <> s.cur_interval then setup_interval ctx s interval;
  Two_bit.observe s.two_bit ~phase ~activity;
  if phase = Schedule.rounds_per_interval - 1 then finish_interval ctx s

let observe ctx s round obs = observe_activity ctx s round (Channel.is_activity obs)

let delivered ctx s =
  if committed_len s >= ctx.config.msg_len then
    Some (Bitvec.init ctx.config.msg_len (fun i -> committed_bit s i))
  else None

(* --- relevant slots -------------------------------------------------- *)

(* [f slot id] on every slot node [id] acts in: its own, where it sends or
   blocks, and every sensed peer's, where it receives; repeats are
   possible.  [setup_interval] leaves it idle in every other slot.
   [machine]'s wake table and [listeners] both read this, so they cannot
   drift apart. *)
let iter_relevant_slots ctx id f =
  let { Graph.in_off; in_peer; _ } = Topology.graph ctx.topology in
  f (Schedule.slot_of ctx.schedule id) id;
  for k = in_off.(id) to in_off.(id + 1) - 1 do
    f (Schedule.slot_of ctx.schedule in_peer.(k)) id
  done

(* Node-major, in O(n + links): each node sets its bit in its relevant
   slots' sets. *)
let listeners ctx =
  let n = Topology.size ctx.topology in
  let sets = Array.init (Schedule.cycle ctx.schedule) (fun _ -> Engine.word_set n) in
  let add slot i = Engine.set_add sets.(slot) i in
  for i = 0 to n - 1 do
    iter_relevant_slots ctx i add
  done;
  fun round ->
    sets.(Schedule.active_slot ctx.schedule ~interval:(Schedule.interval_of_round round))

(* --- construction ---------------------------------------------------- *)

(* Payload lengths fail fast, naming both lengths: an [assert] would name
   only a source line. *)
let check_payload config role =
  let fail what message =
    invalid_arg
      (Printf.sprintf "Multi_path.machine: %s has %d bits, expected msg_len = %d" what
         (Bitvec.length message) config.msg_len)
  in
  match role with
  | Source message when Bitvec.length message <> config.msg_len -> fail "Source message" message
  | Liar message when Bitvec.length message <> config.msg_len -> fail "Liar message" message
  | Source _ | Liar _ | Relay -> ()

let machine ctx id role =
  let config = ctx.config in
  check_payload config role;
  let pos = Topology.position ctx.topology id in
  let { Graph.in_off; in_peer; _ } = Topology.graph ctx.topology in
  let peers =
    Array.init
      (in_off.(id + 1) - in_off.(id))
      (fun k ->
        let peer = in_peer.(in_off.(id) + k) in
        {
          peer_id = peer;
          peer_pos = Topology.position ctx.topology peer;
          stream = One_hop.Receiver.create ();
          parsed = 0;
          poisoned = false;
        })
  in
  (* The schedule gives conflicting (hence mutually sensed) nodes distinct
     slots, so this map is injective; first-wins mirrors the defunct assoc
     list all the same. *)
  let peer_by_slot = Array.make (Schedule.cycle ctx.schedule) None in
  Array.iter
    (fun p ->
      let slot = Schedule.slot_of ctx.schedule p.peer_id in
      match peer_by_slot.(slot) with
      | None -> peer_by_slot.(slot) <- Some p
      | Some _ -> ())
    peers;
  let my_slot = Schedule.slot_of ctx.schedule id in
  (* Wakeup contract: active exactly in the intervals of my own slot and
     of my sensed peers' slots; every other interval resolves to [Idle]. *)
  let relevant = Array.make (Schedule.cycle ctx.schedule) false in
  iter_relevant_slots ctx id (fun slot _ -> relevant.(slot) <- true);
  let next_active = Schedule.next_relevant_round ctx.schedule ~relevant in
  let s =
    {
      id;
      pos;
      my_slot;
      relay_heard = (match role with Liar _ -> false | Source _ | Relay -> true);
      committed = Buffer.create 16;
      sender = One_hop.Sender.create ();
      peers;
      peer_by_slot;
      evidence = Array.init config.msg_len (fun _ -> Voting.Index.create ());
      source_bits = Buffer.create 16;
      heard_relayed = Array.make config.msg_len 0;
      enqueue_commits = (match role with Source _ -> false | Relay | Liar _ -> true);
      two_bit = Two_bit.create ();
      rx_peer = None;
      cur_interval = -1;
    }
  in
  ctx.progress.(id) <- 0;
  begin
    match role with
    | Source message ->
      Bitvec.fold_left
        (fun () bit ->
          add_committed ctx s bit;
          push_frame ctx s (Frame.Source bit))
        () message
    | Liar message ->
      Bitvec.fold_left (fun () bit -> commit_bit ctx s bit) () message
    | Relay -> ()
  end;
  ctx.states.(id) <- Some s;
  {
    Engine.act = (fun round -> act ctx s round);
    observe = (fun round obs -> observe ctx s round obs);
    observe_packed =
      Some
        (fun round code _slots ->
          observe_activity ctx s round (Channel.Packed.is_activity code));
    delivered = (fun () -> delivered ctx s);
    next_active;
  }

let state_of ctx id what =
  let n = Array.length ctx.states in
  if id < 0 || id >= n then
    invalid_arg (Printf.sprintf "Multi_path.%s: node %d is not in 0..%d" what id (n - 1));
  match ctx.states.(id) with
  | None -> invalid_arg (Printf.sprintf "Multi_path.%s: node %d has no machine" what id)
  | Some s -> s

let committed_bits ctx id =
  let s = state_of ctx id "committed_bits" in
  Bitvec.init (committed_len s) (committed_bit s)

let stream_counts ctx id =
  let s = state_of ctx id "stream_counts" in
  List.map (fun p -> (p.peer_id, One_hop.Receiver.received p.stream)) (Array.to_list s.peers)

let progress ctx = Array.fold_left ( + ) 0 ctx.progress
