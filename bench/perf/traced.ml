(* Trace tier: the same broadcast as [Scenario.run ~topology spec],
   assembled here from the public protocol constructors so that every
   machine callback can be counted and timed from outside the library.

   The assembly mirrors [Scenario.run] step by step (rng split order, role
   assignment, idle cut-off, stall detector).  Nothing but a test keeps the
   mirror honest: every traced result is compared field by field with the
   untraced [Scenario.run] of the same spec, and a difference fails the
   benchmark.  When [Engine.machine] changes shape this module is rewritten;
   the gate tier in main.ml does not depend on it. *)

let clock () = Int64.to_int (Monotonic_clock.now ())

(* Cost of one clock read, in ns: the best of several batches of
   back-to-back reads.  Each wrapped callback brackets itself with two
   reads, one of which lands inside the measured interval; [layers]
   subtracts that share from callback time and the other from engine self
   time. *)
let calibrate_clock () =
  let batch = 20_000 in
  let best = ref infinity in
  for _ = 1 to 25 do
    let t0 = clock () in
    for _ = 1 to batch do
      ignore (Sys.opaque_identity (clock ()))
    done;
    let t1 = clock () in
    best := Float.min !best (float_of_int (t1 - t0) /. float_of_int batch)
  done;
  !best

type counters = {
  mutable act_calls : int;
  mutable act_ns : int;
  mutable observe_calls : int;
  mutable observe_ns : int;
  mutable next_active_calls : int;
  mutable next_active_ns : int;
  mutable delivered_calls : int;
  mutable delivered_ns : int;
  mutable progress_calls : int;
  mutable progress_ns : int;
  mutable transmissions : int;
  mutable links_walked : int;
  mutable rx_clear : int;
  mutable rx_busy : int;
  mutable rounds_executed : int;
  mutable rounds_used : int;
  mutable active_rounds : int;
  mutable nodes_x_rounds : int;  (* Σ n × rounds executed, per broadcast *)
  mutable run_ns : int;
  mutable make_ctx_ns : int;
  mutable machine_ns : int;
  mutable broadcasts : int;
}

let counters () =
  {
    act_calls = 0;
    act_ns = 0;
    observe_calls = 0;
    observe_ns = 0;
    next_active_calls = 0;
    next_active_ns = 0;
    delivered_calls = 0;
    delivered_ns = 0;
    progress_calls = 0;
    progress_ns = 0;
    transmissions = 0;
    links_walked = 0;
    rx_clear = 0;
    rx_busy = 0;
    rounds_executed = 0;
    rounds_used = 0;
    active_rounds = 0;
    nodes_x_rounds = 0;
    run_ns = 0;
    make_ctx_ns = 0;
    machine_ns = 0;
    broadcasts = 0;
  }

(* Every engine round that executes polls at least one machine, and each
   poll ends in exactly one observe call; distinct observe rounds are the
   rounds the loop executed (the rest of [rounds_used] it skipped). *)
let wrap c ~last_round ~out_degree (m : 'm Engine.machine) : 'm Engine.machine =
  let note_observation r ~clear ~busy =
    if r <> !last_round then begin
      last_round := r;
      c.rounds_executed <- c.rounds_executed + 1
    end;
    if clear then c.rx_clear <- c.rx_clear + 1 else if busy then c.rx_busy <- c.rx_busy + 1
  in
  let act r =
    let t0 = clock () in
    let a = m.Engine.act r in
    let t1 = clock () in
    c.act_calls <- c.act_calls + 1;
    c.act_ns <- c.act_ns + (t1 - t0);
    (match a with
    | Engine.Transmit _ ->
      c.transmissions <- c.transmissions + 1;
      c.links_walked <- c.links_walked + out_degree
    | Engine.Silent -> ());
    a
  in
  let observe r o =
    let t0 = clock () in
    m.Engine.observe r o;
    let t1 = clock () in
    c.observe_calls <- c.observe_calls + 1;
    c.observe_ns <- c.observe_ns + (t1 - t0);
    match o with
    | Channel.Clear _ -> note_observation r ~clear:true ~busy:false
    | Channel.Busy -> note_observation r ~clear:false ~busy:true
    | Channel.Silence -> note_observation r ~clear:false ~busy:false
  in
  let observe_packed =
    Option.map
      (fun f r p slots ->
        let t0 = clock () in
        f r p slots;
        let t1 = clock () in
        c.observe_calls <- c.observe_calls + 1;
        c.observe_ns <- c.observe_ns + (t1 - t0);
        note_observation r ~clear:(Channel.Packed.is_clear p)
          ~busy:(Channel.Packed.is_activity p && not (Channel.Packed.is_clear p)))
      m.Engine.observe_packed
  in
  let delivered () =
    let t0 = clock () in
    let d = m.Engine.delivered () in
    let t1 = clock () in
    c.delivered_calls <- c.delivered_calls + 1;
    c.delivered_ns <- c.delivered_ns + (t1 - t0);
    d
  in
  let next_active r =
    let t0 = clock () in
    let na = m.Engine.next_active r in
    let t1 = clock () in
    c.next_active_calls <- c.next_active_calls + 1;
    c.next_active_ns <- c.next_active_ns + (t1 - t0);
    na
  in
  { Engine.act; observe; observe_packed; delivered; next_active }

(* [Scenario]'s Byzantine draw, verbatim. *)
let pick_byzantine rng ~n ~source ~fraction =
  let eligible = List.filter (fun i -> i <> source) (List.init n (fun i -> i)) in
  let count =
    min (List.length eligible) (int_of_float (Float.round (fraction *. float_of_int n)))
  in
  let arr = Array.of_list eligible in
  Rng.shuffle rng arr;
  let byz = Array.make n false in
  for k = 0 to count - 1 do
    byz.(arr.(k)) <- true
  done;
  byz

(* The protocol-specific half of the assembly: context (timed into
   [make_ctx_ns]), per-node machines, cycle length and progress counter. *)
type assembly = {
  machine : Node.id -> [ `Source | `Liar of Bitvec.t | `Relay ] -> Msg.t Engine.machine;
  cycle_rounds : int;
  progress : unit -> int;
}

let assemble c spec ~topology ~source ~radius =
  let timed_ctx make =
    let t0 = clock () in
    let ctx = make () in
    c.make_ctx_ns <- c.make_ctx_ns + (clock () - t0);
    ctx
  in
  let msg_len = Bitvec.length spec.Scenario.message in
  match spec.Scenario.protocol with
  | Scenario.Neighbor_watch { votes } ->
    let base = Neighbor_watch.default_config ~radius ~msg_len in
    let config =
      {
        base with
        Neighbor_watch.votes;
        pipelined = spec.Scenario.pipelined;
        square_side = Option.value spec.Scenario.square_side ~default:base.Neighbor_watch.square_side;
      }
    in
    let ctx = timed_ctx (fun () -> Neighbor_watch.make_ctx config ~topology ~source) in
    {
      machine =
        (fun i -> function
          | `Source -> Neighbor_watch.machine ctx i (Neighbor_watch.Source spec.Scenario.message)
          | `Liar fake -> Neighbor_watch.machine ctx i (Neighbor_watch.Liar fake)
          | `Relay -> Neighbor_watch.machine ctx i Neighbor_watch.Relay);
      cycle_rounds = Schedule.cycle (Neighbor_watch.schedule ctx) * Schedule.rounds_per_interval;
      progress = (fun () -> Neighbor_watch.progress ctx);
    }
  | Scenario.Multi_path { tolerance } ->
    let config =
      {
        (Multi_path.default_config ~radius ~tolerance ~msg_len) with
        heard_relay_limit = spec.Scenario.heard_relay_limit;
      }
    in
    let ctx = timed_ctx (fun () -> Multi_path.make_ctx config ~topology ~source) in
    {
      machine =
        (fun i -> function
          | `Source -> Multi_path.machine ctx i (Multi_path.Source spec.Scenario.message)
          | `Liar fake -> Multi_path.machine ctx i (Multi_path.Liar fake)
          | `Relay -> Multi_path.machine ctx i Multi_path.Relay);
      cycle_rounds = Schedule.cycle (Multi_path.schedule ctx) * Schedule.rounds_per_interval;
      progress = (fun () -> Multi_path.progress ctx);
    }
  | Scenario.Epidemic | Scenario.Certified _ ->
    invalid_arg "Traced.run: the benchmark traces NeighborWatchRB and MultiPathRB only"

let run c ~topology spec =
  let rng = Rng.create spec.Scenario.seed in
  let _deployment_rng = Rng.split rng in
  let faults_rng = Rng.split rng in
  let channel_rng = Rng.split rng in
  let n = Topology.size topology in
  let source = Deployment.center_node (Topology.deployment topology) in
  (* Byzantine nodes exist only under [Lying], so every one is a liar. *)
  let byzantine =
    match spec.Scenario.faults with
    | Scenario.No_faults -> Array.make n false
    | Scenario.Lying fraction -> pick_byzantine faults_rng ~n ~source ~fraction
    | Scenario.Crash _ | Scenario.Jamming _ | Scenario.Selective_jam _ ->
      invalid_arg "Traced.run: the benchmark workloads use no-fault and lying specs only"
  in
  let fake = Scenario.fake_message spec.Scenario.message in
  let radius =
    if Topology.is_geometric topology then spec.Scenario.radius else Topology.rx_reach topology
  in
  let a = assemble c spec ~topology ~source ~radius in
  let t0 = clock () in
  let raw =
    Array.init n (fun i ->
        if i = source then a.machine i `Source
        else if byzantine.(i) then a.machine i (`Liar fake)
        else a.machine i `Relay)
  in
  c.machine_ns <- c.machine_ns + (clock () - t0);
  let out_off = (Graph.csr (Topology.graph topology)).Graph.out_off in
  let last_round = ref (-1) in
  let executed_before = c.rounds_executed in
  let machines =
    Array.mapi (fun i m -> wrap c ~last_round ~out_degree:(out_off.(i + 1) - out_off.(i)) m) raw
  in
  let honest = Array.init n (fun i -> not byzantine.(i)) in
  let waiters = Array.init n (fun i -> honest.(i) && i <> source) in
  let cycle_rounds = a.cycle_rounds in
  let idle_stop = (3 * cycle_rounds) + 64 in
  let stall_window = 25 * cycle_rounds in
  let stop_when =
    let last_progress = ref (-1) in
    let checks_since_change = ref 0 in
    let checks_allowed = max 1 (stall_window / 96) in
    fun () ->
      let s0 = clock () in
      let p = a.progress () in
      let s1 = clock () in
      c.progress_calls <- c.progress_calls + 1;
      c.progress_ns <- c.progress_ns + (s1 - s0);
      if p <> !last_progress then begin
        last_progress := p;
        checks_since_change := 0;
        false
      end
      else begin
        incr checks_since_change;
        !checks_since_change >= checks_allowed
      end
  in
  (* [?mode:None]: whatever loop [Engine.run] defaults to, which is the
     loop [Scenario.run] runs when the gate tier passes no mode. *)
  let r0 = clock () in
  let result =
    Engine.run ?mode:None ~rng:channel_rng ~channel:spec.Scenario.channel ~idle_stop ~stop_when
      ~topology ~machines ~waiters ~cap:spec.Scenario.cap ()
  in
  let r1 = clock () in
  c.run_ns <- c.run_ns + (r1 - r0);
  c.rounds_used <- c.rounds_used + result.Engine.rounds_used;
  c.active_rounds <- c.active_rounds + result.Engine.active_rounds;
  c.nodes_x_rounds <- c.nodes_x_rounds + (n * (c.rounds_executed - executed_before));
  c.broadcasts <- c.broadcasts + 1;
  result

(* The first field where two engine results differ, if any. *)
let first_difference (a : Engine.result) (b : Engine.result) =
  let ints x y = Array.length x = Array.length y && Array.for_all2 Int.equal x y in
  let delivered x y =
    Array.length x = Array.length y && Array.for_all2 (Option.equal Bitvec.equal) x y
  in
  if a.Engine.rounds_used <> b.Engine.rounds_used then Some "rounds_used"
  else if a.Engine.active_rounds <> b.Engine.active_rounds then Some "active_rounds"
  else if not (Bool.equal a.Engine.hit_cap b.Engine.hit_cap) then Some "hit_cap"
  else if not (delivered a.Engine.delivered b.Engine.delivered) then Some "delivered"
  else if not (ints a.Engine.completion_round b.Engine.completion_round) then
    Some "completion_round"
  else if not (ints a.Engine.broadcasts b.Engine.broadcasts) then Some "broadcasts"
  else None

(* Per-layer metrics over all traced broadcasts: times per broadcast in
   seconds, counts per broadcast, and ratios.  [clock_ns] is the
   calibrated cost of one clock read. *)
let layers c ~clock_ns =
  let b = float_of_int (max 1 c.broadcasts) in
  let f = float_of_int in
  let wrapped_calls =
    c.act_calls + c.observe_calls + c.next_active_calls + c.delivered_calls + c.progress_calls
  in
  let overhead calls = f calls *. clock_ns in
  let cb_s ns calls = Float.max 0.0 (f ns -. overhead calls) /. 1e9 /. b in
  let callbacks_ns =
    c.act_ns + c.observe_ns + c.next_active_ns + c.delivered_ns + c.progress_ns
  in
  let self_s =
    Float.max 0.0 (f c.run_ns -. f callbacks_ns -. overhead wrapped_calls) /. 1e9 /. b
  in
  let per_call ns calls = if calls = 0 then 0.0 else Float.max 0.0 (f ns -. overhead calls) /. f calls in
  let polls = f c.observe_calls in
  let ratio x y = if Float.equal y 0.0 then 0.0 else x /. y in
  let per_b x = f x /. b in
  [
    ("Protocol.make_ctx_s", f c.make_ctx_ns /. 1e9 /. b, "s/broadcast");
    ("Protocol.machine_s", f c.machine_ns /. 1e9 /. b, "s/broadcast");
    ("Engine.run_s", f c.run_ns /. 1e9 /. b, "s/broadcast");
    ("Engine.self_s", self_s, "s/broadcast");
    ("Engine.rounds_executed", per_b c.rounds_executed, "count/broadcast");
    ("Engine.rounds_used", per_b c.rounds_used, "count/broadcast");
    ("Engine.polls", polls /. b, "count/broadcast");
    ("Engine.act_calls", per_b c.act_calls, "count/broadcast");
    ("Engine.next_active_calls", per_b c.next_active_calls, "count/broadcast");
    ("Engine.delivered_calls", per_b c.delivered_calls, "count/broadcast");
    ("Engine.polls_per_round", ratio polls (f c.rounds_executed), "count/round");
    ( "Engine.useful_poll_ratio",
      ratio (f (c.transmissions + c.rx_clear + c.rx_busy)) polls,
      "ratio" );
    ("Engine.self_ns_per_round_node", ratio (self_s *. b *. 1e9) (f c.nodes_x_rounds), "ns");
    ("Channel.transmissions", per_b c.transmissions, "count/broadcast");
    ("Channel.links_walked", per_b c.links_walked, "count/broadcast");
    ("Channel.rx_clear", per_b c.rx_clear, "count/broadcast");
    ("Channel.rx_busy", per_b c.rx_busy, "count/broadcast");
    ("Channel.clear_ratio", ratio (f c.rx_clear) (f (c.rx_clear + c.rx_busy)), "ratio");
    ("Channel.links_per_active_round", ratio (f c.links_walked) (f c.active_rounds), "count/round");
    ("Protocol.act_s", cb_s c.act_ns c.act_calls, "s/broadcast");
    ("Protocol.observe_s", cb_s c.observe_ns c.observe_calls, "s/broadcast");
    ("Protocol.next_active_s", cb_s c.next_active_ns c.next_active_calls, "s/broadcast");
    ("Protocol.delivered_s", cb_s c.delivered_ns c.delivered_calls, "s/broadcast");
    ("Protocol.progress_s", cb_s c.progress_ns c.progress_calls, "s/broadcast");
    ("Protocol.act_ns_per_call", per_call c.act_ns c.act_calls, "ns");
    ("Protocol.observe_ns_per_call", per_call c.observe_ns c.observe_calls, "ns");
  ]
