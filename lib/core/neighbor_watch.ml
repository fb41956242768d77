type config = {
  radius : float;
  square_side : float;
  votes : int;
  msg_len : int;
  catchup_failures : int;
  pipelined : bool;
}

let default_config ~radius ~msg_len =
  {
    radius;
    square_side = Squares.simulation_side ~radius;
    votes = 1;
    msg_len;
    catchup_failures = 25;
    pipelined = true;
  }

let analytic_config ~radius ~msg_len =
  { (default_config ~radius ~msg_len) with square_side = Squares.analytic_side ~radius }

(* The safety-critical voting kernel, factored out so the Vote_check
   exhaustive verifier can drive exactly the code the protocol runs (the
   monotone agreement pointers, the once-per-frontier tally, the source
   override) on enumerated Byzantine stream patterns. *)
module Vote = struct
  type provider = Src | Sq of int

  type stream = {
    provider : provider;
    receiver : One_hop.Receiver.t;
    mutable agreed : int;
        (* bits verified equal to the committed prefix — both sides are
           append-only, so agreement never needs re-checking *)
    mutable disagrees : bool;  (* a verified bit differed: never a candidate again *)
    mutable counted : int;
        (* frontier index at which this stream's vote was tallied; -1 = none *)
  }

  let stream provider =
    { provider; receiver = One_hop.Receiver.create (); agreed = 0; disagrees = false; counted = -1 }

  let receiver st = st.receiver
  let provider st = st.provider

  let reset_stream st =
    st.agreed <- 0;
    st.disagrees <- false;
    st.counted <- -1

  type t = {
    votes : int;
    tally : Voting.Tally.t;  (* square votes at the current frontier *)
    mutable frontier : int;  (* frontier index the tally counts for *)
    mutable src_vote : bool option;
        (* the source stream's frontier bit, if heard: the constant
           [Some true] or [Some false], so storing and returning it
           allocates nothing *)
  }

  let create ~votes = { votes; tally = Voting.Tally.create (); frontier = -1; src_vote = None }
  let votes (t : t) = t.votes

  let reset t =
    t.frontier <- -1;
    Voting.Tally.reset t.tally;
    t.src_vote <- None

  let committed_bit (committed : Buffer.t) i = Buffer.nth committed i = '1'

  (* A provider stream can justify bit [c] only if it extends the node's own
     committed prefix: mixing prefixes of disagreeing streams would deliver a
     message nobody sent.  Both the committed prefix and the stream are
     append-only, so the agreement pointer advances monotonically instead of
     re-walking the whole prefix on every poll. *)
  let advance_agreement ~committed st =
    let c = Buffer.length committed in
    let received = One_hop.Receiver.received st.receiver in
    while (not st.disagrees) && st.agreed < c && st.agreed < received do
      if One_hop.Receiver.get st.receiver st.agreed = committed_bit committed st.agreed then
        st.agreed <- st.agreed + 1
      else st.disagrees <- true
    done

  (* One frontier decision.  While the frontier stays at [Buffer.length
     committed], a stream's candidacy is monotone (its bit there is
     immutable once received, disagreement is final), so each stream's vote
     is tallied at most once per frontier index. *)
  let poll t ~committed streams =
    let c = Buffer.length committed in
    if t.frontier <> c then begin
      t.frontier <- c;
      Voting.Tally.reset t.tally;
      t.src_vote <- None
    end;
    for k = 0 to Array.length streams - 1 do
      let st = streams.(k) in
      if st.counted <> c then begin
        advance_agreement ~committed st;
        if (not st.disagrees) && st.agreed = c && One_hop.Receiver.received st.receiver > c
        then begin
          st.counted <- c;
          let v = One_hop.Receiver.get st.receiver c in
          match st.provider with
          | Src -> t.src_vote <- (if v then Some true else Some false)
          | Sq _ -> Voting.Tally.add t.tally v
        end
      end
    done;
    match t.src_vote with
    (* Direct reception from the source is authenticated by Theorem 2
       and needs no corroboration, whatever the voting threshold. *)
    | Some _ as heard -> heard
    | None ->
      if Voting.Tally.count t.tally ~value:true >= t.votes then Some true
      else if Voting.Tally.count t.tally ~value:false >= t.votes then Some false
      else None
end

type state = {
  id : Node.id;
  mutable send_slot : int;
      (** own square's slot (the source sends in slot 0 instead); [-1] until
          {!build} has run *)
  mutable committed : Buffer.t;  (** '0'/'1' chars *)
  mutable sender : One_hop.Sender.t;
  mutable streams : Vote.stream array;
      (** the source's first if sensed, then adjacent squares' *)
  mutable stream_slots : int array;
      (** the slot each of [streams] is heard in: at most nine, pairwise
          distinct (see {!stream_in_slot}) *)
  mutable vote : Vote.t;  (** the frontier tally (see {!Vote}) *)
  mutable two_bit : Two_bit.t;  (** this interval's part, re-armed in place *)
  mutable rx : int;  (** index in [streams] listened to this interval, or [-1] *)
  mutable cur_interval : int;
  mutable needy_from : int;
  mutable needy_at : int;
      (** wake cache: no interval in [\[needy_from, needy_at)] needs a poll,
          and [needy_at] does ([max_int]: none ever does); see {!needy} *)
  mutable own_progress : int;  (** this node's share of the context's [progress] *)
  mutable failures : int;
  mutable liar_attempts : int;
      (** [> 0]: a lying device that will abandon its fake message and
          fall back to honest relaying after that many more vetoed
          exchanges; [0]: honest (or a liar that has given up).
          The paper's liars "appear correct": a square's honest watch
          detects and vetoes the injection, after which a rational liar
          stops burning budget on a detected attack (otherwise it is just a
          jammer, measured separately).  This matches the paper's stated
          success condition — only squares with no honest member spread the
          fake (Section 6.1). *)
}

type ctx = {
  config : config;
  topology : Topology.t;
  squares : Squares.t;
  schedule : Schedule.t;
  source : Node.id;
  states : state option array;  (** by node id: the last machine built for it *)
  mutable progress : int;
      (** committed bits plus stream bits received, summed over [states]:
          each machine adds its own changes in O(1) *)
  blank : state;
      (** what every machine starts as: a fresh relay whose heavy parts are
          empty placeholders shared by the whole context.  No machine owns
          it, and {!build} replaces a machine's placeholders before anything
          could write them. *)
}

let make_ctx config ~topology ~source =
  let deployment = Topology.deployment topology in
  let squares =
    Squares.make ~side:config.square_side
      ~width:(deployment.Deployment.width +. 1e-6)
      ~height:(deployment.Deployment.height +. 1e-6)
  in
  let schedule = Schedule.for_squares squares ~radius:config.radius in
  let blank =
    {
      id = -1;
      send_slot = -1;
      committed = Buffer.create 0;
      sender = One_hop.Sender.create ();
      streams = [||];
      stream_slots = [||];
      vote = Vote.create ~votes:config.votes;
      two_bit = Two_bit.create ();
      rx = -1;
      cur_interval = -1;
      needy_from = max_int;
      needy_at = max_int;
      own_progress = 0;
      failures = 0;
      liar_attempts = 0;
    }
  in
  {
    config;
    topology;
    squares;
    schedule;
    source;
    states = Array.make (Topology.size topology) None;
    progress = 0;
    blank;
  }

let schedule ctx = ctx.schedule

type role = Source of Bitvec.t | Relay | Liar of Bitvec.t

let committed_len s = Buffer.length s.committed
let committed_bit s i = Buffer.nth s.committed i = '1'

let add_progress ctx s delta =
  s.own_progress <- s.own_progress + delta;
  ctx.progress <- ctx.progress + delta

let commit_bit ctx s bit =
  Buffer.add_char s.committed (if bit then '1' else '0');
  add_progress ctx s 1;
  (* Committed bits are what the node's square is allowed to forward.  The
     non-pipelined ablation (DESIGN.md) holds bits back until the whole
     message has been committed — the "natural" store-and-forward layering
     whose running time the paper shows to be asymptotically worse. *)
  if ctx.config.pipelined then One_hop.Sender.push s.sender bit
  else if Buffer.length s.committed = ctx.config.msg_len then
    String.iter (fun c -> One_hop.Sender.push s.sender (c = '1')) (Buffer.contents s.committed)

(* Try to extend the committed prefix; repeats until no rule applies.  The
   frontier decision proper lives in {!Vote.poll}. *)
let rec try_commit ctx s =
  if committed_len s < ctx.config.msg_len then begin
    match Vote.poll s.vote ~committed:s.committed s.streams with
    | Some v ->
      commit_bit ctx s v;
      try_commit ctx s
    | None -> ()
  end

let delivered ctx s =
  let msg_len = ctx.config.msg_len in
  if committed_len s >= msg_len then Some (Bitvec.init msg_len (fun i -> committed_bit s i))
  else None

(* --- deferred state ------------------------------------------------- *)

(* A machine's heavy state: its streams, committed buffer, 1Hop sender,
   vote tally and 2Bit machine.  A plain relay builds it at its first
   interval set-up, since most nodes of a sparse network never act; until
   then the context's blank placeholders read as a fresh relay's state
   would (nothing committed or queued, every stream even), which is all
   [delivered] and [needy] look at. *)
let built s = s.send_slot >= 0

let build ctx s =
  let my_square = Squares.square_of ctx.squares (Topology.position ctx.topology s.id) in
  let is_source = s.id = ctx.source in
  let senses_source =
    (not is_source)
    && Graph.senses (Topology.graph ctx.topology) ~rx:s.id ~tx:ctx.source
  in
  (* Streams in listening order: the source's if sensed, then the adjacent
     squares' in [Squares.neighbors] order. *)
  let adjacent = Array.of_list (Squares.neighbors ctx.squares my_square) in
  let first = if senses_source then 1 else 0 in
  let count = first + Array.length adjacent in
  s.streams <-
    Array.init count (fun k ->
        Vote.stream (if k < first then Vote.Src else Vote.Sq adjacent.(k - first)));
  s.stream_slots <-
    Array.init count (fun k ->
        if k < first then Schedule.source_slot
        else Schedule.slot_of ctx.schedule adjacent.(k - first));
  s.committed <- Buffer.create 16;
  s.sender <- One_hop.Sender.create ();
  s.vote <- Vote.create ~votes:ctx.config.votes;
  s.two_bit <- Two_bit.create ();
  s.send_slot <-
    (if is_source then Schedule.source_slot else Schedule.slot_of ctx.schedule my_square)

(* --- interval roles ------------------------------------------------- *)

(* The index of the stream heard in [slot] from [k] on, or -1.  A node
   listens to at most nine slots, pairwise distinct: the source's slot 0 is
   reserved, and adjacent squares of one 3x3 block get distinct slots (the
   schedule's reuse distance k >= 3).  So a scan finds the only match, and
   costs no cycle-sized table per machine.  The [int] annotation keeps the
   comparison an integer one, not a polymorphic [compare] call. *)
let rec stream_in_slot (slots : int array) slot k =
  if k = Array.length slots then -1
  else if slots.(k) = slot then k
  else stream_in_slot slots slot (k + 1)

let setup_interval ctx s interval =
  if not (built s) then build ctx s;
  s.cur_interval <- interval;
  let slot = Schedule.active_slot ctx.schedule ~interval in
  if slot = s.send_slot then begin
    s.rx <- -1;
    One_hop.Sender.arm s.sender s.two_bit
  end
  else begin
    s.rx <- stream_in_slot s.stream_slots slot 0;
    if s.rx >= 0 then Two_bit.receive s.two_bit else Two_bit.idle s.two_bit
  end

(* A detected liar abandons the fake and relays honestly from scratch.  The
   committed prefix restarts, so every stream's agreement state restarts
   with it. *)
let liar_give_up ctx s =
  s.liar_attempts <- 0;
  add_progress ctx s (-committed_len s);
  Buffer.clear s.committed;
  s.sender <- One_hop.Sender.create ();
  s.failures <- 0;
  Array.iter Vote.reset_stream s.streams;
  Vote.reset s.vote;
  try_commit ctx s

(* Run after phase 5 has been observed, so a sender has finished. *)
let finish_interval ctx s =
  let tb = s.two_bit in
  if Two_bit.sending tb then begin
    if Two_bit.succeeded tb then begin
      One_hop.Sender.advance s.sender;
      s.failures <- 0
    end
    else if s.liar_attempts > 0 then begin
      if s.liar_attempts <= 1 then liar_give_up ctx s
      else s.liar_attempts <- s.liar_attempts - 1
    end
    else begin
      s.failures <- s.failures + 1;
      (* Square catch-up, trigger 2: persistently failing on bit [i] while
         already knowing bit [i+1] means either the rest of the square has
         moved on, or a jammer is spending a broadcast per interval; skip
         forward rather than deadlock (see DESIGN.md). *)
      let pointer = One_hop.Sender.sent s.sender in
      if s.failures >= ctx.config.catchup_failures
         && One_hop.Sender.total s.sender > pointer + 1
      then begin
        One_hop.Sender.skip_to s.sender (pointer + 1);
        s.failures <- 0
      end
    end
  end
  else if Two_bit.succeeded tb then begin
    let rx = Vote.receiver s.streams.(s.rx) in
    let before = One_hop.Receiver.received rx in
    One_hop.Receiver.push_two_bit rx ~parity:(Two_bit.bit1 tb) ~data:(Two_bit.bit2 tb);
    if One_hop.Receiver.received rx > before then begin
      add_progress ctx s 1;
      (* The stream's parity flipped and [try_commit] may queue bits for
         sending: both decide future wakes (see [needy]). *)
      s.needy_from <- max_int
    end;
    try_commit ctx s
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
  (* Square catch-up, trigger 1: a sender silent in the parity round but
     hearing parity activity, whose next bit is already committed — the
     rest of the square is one bit ahead; join them, and stay idle for the
     rest of the interval. *)
  if phase = 0 && activity && Two_bit.sending s.two_bit && (not (Two_bit.bit1 s.two_bit))
     && One_hop.Sender.total s.sender > One_hop.Sender.sent s.sender + 1
  then begin
    One_hop.Sender.skip_to s.sender (One_hop.Sender.sent s.sender + 1);
    s.failures <- 0;
    Two_bit.idle s.two_bit
  end
  else Two_bit.observe s.two_bit ~phase ~activity;
  if phase = Schedule.rounds_per_interval - 1 then finish_interval ctx s

let observe ctx s round obs = observe_activity ctx s round (Channel.is_activity obs)

(* --- wakeup contract: quiet intervals --------------------------------- *)

let odd_stream stream = One_hop.Receiver.received (Vote.receiver stream) land 1 = 1

(* An interval needs polls only if the machine sends in it (own slot, a
   current bit queued) or receives in it on a stream at an odd index, where
   silence reads as the pair <0,0> and is accepted (DESIGN.md deviation 12).
   In every other interval — idle, blocking with nothing to send, receiving
   at an even index — an all-silent interval leaves the machine as it found
   it: [setup_interval], run lazily at the first poll, re-arms the 2Bit
   machine to exactly the state the silent phases would have left, and
   the <0,0> such a receiver would push has the wrong parity, is rejected,
   and makes [try_commit] a no-op.  Those machines wait for a reception,
   which the engine delivers in every slot they listen to (see
   [listeners]).

   [needy ctx s interval] is the first needy interval >= [interval], or
   [max_int], from a cache so that a call is O(1).  Invariant: the answer
   depends only on [has_current] and on each listened stream's parity, and
   no interval in [needy_from, needy_at) is needy.  Only an accepted stream
   push (with the commits [try_commit] queues after it) can make an
   earlier interval needy, so that is the one place that clears the cache.
   Every other change — an advance, a catch-up skip (both triggers keep
   [has_current] true), a liar's give-up — happens inside an interval the
   machine sends in, which is [needy_at] itself, and its next call asks
   for a later interval, which recomputes. *)
let needy ctx s interval =
  if interval < s.needy_from || interval > s.needy_at then begin
    (* Intervals from [interval] to the next one of each needy slot. *)
    let cycle = Schedule.cycle ctx.schedule in
    let base = interval mod cycle in
    let best =
      ref
        (if One_hop.Sender.has_current s.sender then (s.send_slot - base + cycle) mod cycle
         else max_int)
    in
    for k = 0 to Array.length s.streams - 1 do
      let slot = s.stream_slots.(k) in
      if slot <> s.send_slot && odd_stream s.streams.(k) then begin
        let d = (slot - base + cycle) mod cycle in
        if d < !best then best := d
      end
    done;
    s.needy_from <- interval;
    s.needy_at <- (if !best = max_int then max_int else interval + !best)
  end;
  s.needy_at

(* Once set up in an interval, the 2Bit machine decides (see
   {!Two_bit.engaged}), except that a receiver on an odd stream runs to the
   end: it must see phase 4 and finish. *)
let engaged s = Two_bit.engaged s.two_bit || (s.rx >= 0 && odd_stream s.streams.(s.rx))

let next_active ctx s round =
  let interval = Schedule.interval_of_round round in
  if interval = s.cur_interval && engaged s then round
  else begin
    (* Set up in this interval but not engaged: the rest of it is quiet. *)
    let from = if interval = s.cur_interval then interval + 1 else interval in
    let at = needy ctx s from in
    if at = interval then round
    else if at = max_int then max_int
    else Schedule.first_round_of_interval at
  end

(* --- listener sets ---------------------------------------------------- *)

(* Who a slot's intervals can affect: its owners, who send or block, and
   every node with a stream in it.  A square's slot reaches the members of
   its 3x3 block of squares: its own members own it, and the eight
   adjacent squares' members listen to it.  Slot 0 reaches the source and
   every node that senses it.  [setup_interval] leaves every other node
   idle there, and an idle observe changes nothing (Engine.run's listener
   contract).  Built node-major with [build]'s own square arithmetic, so
   the sets and the machines agree by construction: each node sets its
   bit in the slots of its block, allocating nothing per node. *)
let listeners ctx =
  let n = Topology.size ctx.topology in
  let sets = Array.init (Schedule.cycle ctx.schedule) (fun _ -> Engine.word_set n) in
  let cols = Squares.cols ctx.squares and rows = Squares.rows ctx.squares in
  for i = 0 to n - 1 do
    let w = i / Bitvec.bits_per_word and bit = 1 lsl (i mod Bitvec.bits_per_word) in
    let q = Squares.square_of ctx.squares (Topology.position ctx.topology i) in
    let cx = q mod cols and cy = q / cols in
    for y = (if cy > 0 then cy - 1 else 0) to if cy < rows - 1 then cy + 1 else cy do
      for x = (if cx > 0 then cx - 1 else 0) to if cx < cols - 1 then cx + 1 else cx do
        let set = sets.(Schedule.slot_of ctx.schedule ((y * cols) + x)) in
        set.(w) <- set.(w) lor bit
      done
    done
  done;
  let slot0 = sets.(Schedule.source_slot) in
  Engine.set_add slot0 ctx.source;
  let { Graph.out_off; out_rcv; _ } = Graph.csr (Topology.graph ctx.topology) in
  for k = out_off.(ctx.source) to out_off.(ctx.source + 1) - 1 do
    Engine.set_add slot0 out_rcv.(k)
  done;
  fun round ->
    sets.(Schedule.active_slot ctx.schedule ~interval:(Schedule.interval_of_round round))

(* --- construction ---------------------------------------------------- *)

(* Payload lengths fail fast, naming both lengths: an [assert] would name
   only a source line. *)
let check_payload config role initial_commit =
  let fail what bits expected =
    invalid_arg
      (Printf.sprintf "Neighbor_watch.machine: %s has %d bits, expected %s %d" what
         (Bitvec.length bits) expected config.msg_len)
  in
  match (role, initial_commit) with
  | Source message, _ when Bitvec.length message <> config.msg_len ->
    fail "Source message" message "msg_len ="
  | Liar message, _ when Bitvec.length message <> config.msg_len ->
    fail "Liar message" message "msg_len ="
  | Relay, Some prefix when Bitvec.length prefix > config.msg_len ->
    fail "initial_commit" prefix "at most msg_len ="
  | (Source _ | Liar _ | Relay), _ -> ()

(* Bits committed at construction are queued for sending at once, so they
   need the heavy state now. *)
let commit_at_construction ctx s bits =
  build ctx s;
  Bitvec.fold_left (fun () bit -> commit_bit ctx s bit) () bits

let machine ?initial_commit ctx id role =
  check_payload ctx.config role initial_commit;
  let s =
    { ctx.blank with id; liar_attempts = (match role with Liar _ -> 3 | Source _ | Relay -> 0) }
  in
  (* A rebuilt node's previous machine leaves the total. *)
  (match ctx.states.(id) with
  | Some old -> ctx.progress <- ctx.progress - old.own_progress
  | None -> ());
  ctx.states.(id) <- Some s;
  begin
    match role with
    | Source message | Liar message -> commit_at_construction ctx s message
    | Relay -> begin
      (* Bits this node committed in a previous epoch of a mobile run stay
         committed: commitment is a local, already-authenticated fact. *)
      match initial_commit with
      | Some prefix when Bitvec.length prefix > 0 -> commit_at_construction ctx s prefix
      | Some _ | None -> ()
    end
  end;
  {
    Engine.act = (fun round -> act ctx s round);
    observe = (fun round obs -> observe ctx s round obs);
    observe_packed =
      Some
        (fun round code _slots ->
          observe_activity ctx s round (Channel.Packed.is_activity code));
    delivered = (fun () -> delivered ctx s);
    next_active = (fun round -> next_active ctx s round);
  }

let state_of ctx id fn =
  let n = Array.length ctx.states in
  if id < 0 || id >= n then
    invalid_arg (Printf.sprintf "Neighbor_watch.%s: node %d is not in 0..%d" fn id (n - 1));
  match ctx.states.(id) with
  | None -> invalid_arg (Printf.sprintf "Neighbor_watch.%s: node %d has no machine" fn id)
  | Some s -> s

let committed_bits ctx id =
  let s = state_of ctx id "committed_bits" in
  Bitvec.init (committed_len s) (committed_bit s)

let stream_counts ctx id =
  let s = state_of ctx id "stream_counts" in
  if not (built s) then build ctx s;
  List.init (Array.length s.streams) (fun k ->
      (s.stream_slots.(k), One_hop.Receiver.received (Vote.receiver s.streams.(k))))

let unsent_bits ctx id =
  let s = state_of ctx id "unsent_bits" in
  One_hop.Sender.total s.sender - One_hop.Sender.sent s.sender

(* The stall detector calls this every [stop_stride] rounds, executed or
   skipped, so it reads a running total rather than summing n counts. *)
let progress (ctx : ctx) = ctx.progress
