(* End-to-end tests for NeighborWatchRB: correct dissemination on the
   analytic grid and on random Euclidean deployments, fault containment
   (liars, jammers), the square catch-up rule, and the pipelining claim. *)

let message = Bitvec.of_string "1011"

let run_scenario ?(seed = 1) ?(votes = 1) ?(faults = Scenario.No_faults) ?(msg = message)
    ?(n = 150) ?(map = 10.0) ?(radius = 3.0) ?(radio = Scenario.Friis) ?square_side
    ?(pipelined = true) () =
  let spec =
    {
      Scenario.default with
      map_w = map;
      map_h = map;
      deployment = Scenario.Uniform n;
      radio;
      radius;
      message = msg;
      protocol = Scenario.Neighbor_watch { votes };
      faults;
      square_side;
      pipelined;
      seed;
    }
  in
  (spec, Scenario.run spec)

let test_grid_broadcast_completes () =
  let spec =
    {
      Scenario.default with
      map_w = 12.0;
      map_h = 12.0;
      deployment = Scenario.Grid;
      radio = Scenario.Disk_linf;
      radius = 2.0;
      square_side = Some (Squares.analytic_side ~radius:2.0);
      message;
    }
  in
  let s = Scenario.summarize (Scenario.run spec) in
  Alcotest.(check (float 1e-9)) "everyone completes" 1.0 s.Scenario.completion_rate;
  Alcotest.(check (float 1e-9)) "everyone correct" 1.0 s.Scenario.correct_rate;
  Alcotest.(check bool) "no cap" false s.Scenario.hit_cap

let test_uniform_broadcast_completes () =
  let _, result = run_scenario () in
  let s = Scenario.summarize result in
  Alcotest.(check bool) "completion >= 99%" true (s.Scenario.completion_rate >= 0.99);
  Alcotest.(check (float 1e-9)) "all delivered are correct" 1.0 s.Scenario.correct_of_delivered

let test_deliveries_never_fake_without_liars () =
  (* Across several seeds, honest runs deliver only the authentic message. *)
  List.iter
    (fun seed ->
      let _, result = run_scenario ~seed () in
      let s = Scenario.summarize result in
      Alcotest.(check int)
        (Printf.sprintf "seed %d" seed)
        s.Scenario.delivered_any s.Scenario.delivered_correct)
    [ 2; 3; 4; 5; 6 ]

let test_two_voting_requires_two_providers () =
  (* A three-node line: source, then two relays in consecutive squares.
     The last relay hears only one square, so with votes = 2 it can commit
     only... from the source if in range; place it out of source range. *)
  let _, result1 = run_scenario ~votes:1 ~n:60 ~map:8.0 () in
  let _, result2 = run_scenario ~votes:2 ~n:60 ~map:8.0 () in
  let s1 = Scenario.summarize result1 and s2 = Scenario.summarize result2 in
  Alcotest.(check bool) "2-voting never beats 1-voting completion" true
    (s2.Scenario.completion_rate <= s1.Scenario.completion_rate +. 1e-9);
  Alcotest.(check (float 1e-9)) "2-voting stays correct" 1.0 s2.Scenario.correct_of_delivered

let test_crash_reduces_completion_gracefully () =
  let _, result = run_scenario ~faults:(Scenario.Crash 0.5) ~n:120 () in
  let s = Scenario.summarize result in
  (* Whatever completes must still be correct. *)
  Alcotest.(check (float 1e-9)) "correct" 1.0 s.Scenario.correct_of_delivered

let test_jamming_delays_but_completes () =
  let _, no_jam = run_scenario ~n:120 () in
  let _, jam =
    run_scenario ~n:120
      ~faults:(Scenario.Jamming { fraction = 0.1; budget = 40; probability = 0.2 })
      ()
  in
  let s0 = Scenario.summarize no_jam and s1 = Scenario.summarize jam in
  Alcotest.(check bool) "jamming still completes" true (s1.Scenario.completion_rate >= 0.99);
  Alcotest.(check bool) "jamming costs time" true (s1.Scenario.rounds > s0.Scenario.rounds);
  Alcotest.(check (float 1e-9)) "jamming cannot corrupt" 1.0 s1.Scenario.correct_of_delivered

let test_lying_contained_at_low_fraction () =
  let _, result = run_scenario ~faults:(Scenario.Lying 0.03) ~seed:3 () in
  let s = Scenario.summarize result in
  Alcotest.(check bool) "most deliveries correct" true (s.Scenario.correct_of_delivered >= 0.9)

let test_lying_wins_eventually () =
  (* With enough liars, fake messages do spread (the steep drop-off of
     Figure 6); at 35% some honest nodes must have adopted the fake. *)
  let corrupted =
    List.exists
      (fun seed ->
        let _, result = run_scenario ~faults:(Scenario.Lying 0.35) ~seed () in
        let s = Scenario.summarize result in
        s.Scenario.delivered_correct < s.Scenario.delivered_any)
      [ 1; 2; 3 ]
  in
  Alcotest.(check bool) "heavy lying corrupts some node" true corrupted

let test_stalled_run_terminates_early () =
  let spec, result = run_scenario ~faults:(Scenario.Lying 0.35) ~seed:1 () in
  Alcotest.(check bool) "wedged run cut before cap" true
    (result.Scenario.engine.Engine.rounds_used < spec.Scenario.cap)

let test_liars_count_as_delivered_fake () =
  let _, result = run_scenario ~faults:(Scenario.Lying 0.10) ~seed:2 () in
  (* Liars are excluded from the honest set and hence from the metrics. *)
  let s = Scenario.summarize result in
  Alcotest.(check bool) "honest set shrank" true (s.Scenario.honest_nodes < 150 - 1)

(* --- direct-API tests (no Scenario) --------------------------------- *)

let grid_ctx_and_machines ~side ~radius ~msg ~liars =
  let deployment = Deployment.grid ~width:side ~height:side in
  let topology = Topology.build deployment (Propagation.disk_linf radius) in
  let source = Deployment.center_node deployment in
  let config =
    {
      (Neighbor_watch.analytic_config ~radius ~msg_len:(Bitvec.length msg)) with
      Neighbor_watch.catchup_failures = 10;
    }
  in
  let ctx = Neighbor_watch.make_ctx config ~topology ~source in
  let fake = Bitvec.init (Bitvec.length msg) (fun i -> not (Bitvec.get msg i)) in
  let machines =
    Array.init (Deployment.size deployment) (fun i ->
        if i = source then Neighbor_watch.machine ctx i (Neighbor_watch.Source msg)
        else if List.mem i liars then Neighbor_watch.machine ctx i (Neighbor_watch.Liar fake)
        else Neighbor_watch.machine ctx i Neighbor_watch.Relay)
  in
  (ctx, topology, source, machines)

let test_committed_bits_and_progress () =
  let msg = Bitvec.of_string "110" in
  let ctx, topology, source, machines =
    grid_ctx_and_machines ~side:7 ~radius:2.0 ~msg ~liars:[]
  in
  let n = Topology.size topology in
  let before = Neighbor_watch.progress ctx in
  let waiters = Array.init n (fun i -> i <> source) in
  let result = Engine.run ~topology ~machines ~waiters ~cap:200_000 () in
  Alcotest.(check bool) "progress grew" true (Neighbor_watch.progress ctx > before);
  for i = 0 to n - 1 do
    Alcotest.(check string)
      (Printf.sprintf "node %d committed the message" i)
      (Bitvec.to_string msg)
      (Bitvec.to_string (Neighbor_watch.committed_bits ctx i));
    match result.Engine.delivered.(i) with
    | Some bits -> Alcotest.(check bool) "delivered = message" true (Bitvec.equal bits msg)
    | None -> Alcotest.fail "grid node did not deliver"
  done

(* Building a node's machine again replaces it in the running total: the
   old machine's count leaves, the new one's construction commits enter. *)
let test_progress_after_rebuild () =
  let msg = Bitvec.of_string "110" in
  let ctx, topology, source, machines =
    grid_ctx_and_machines ~side:7 ~radius:2.0 ~msg ~liars:[]
  in
  let n = Topology.size topology in
  let folded () =
    let total = ref 0 in
    for i = 0 to n - 1 do
      total :=
        !total
        + Bitvec.length (Neighbor_watch.committed_bits ctx i)
        + List.fold_left (fun acc (_, count) -> acc + count) 0 (Neighbor_watch.stream_counts ctx i)
    done;
    !total
  in
  let waiters = Array.init n (fun i -> i <> source) in
  let _ = Engine.run ~topology ~machines ~waiters ~cap:200_000 () in
  let relay = if source = 0 then 1 else 0 in
  Alcotest.(check bool) "the relay heard streams" true
    (List.exists (fun (_, count) -> count > 0) (Neighbor_watch.stream_counts ctx relay));
  let check label =
    Alcotest.(check int) label (folded ()) (Neighbor_watch.progress ctx)
  in
  check "after the run";
  ignore (Neighbor_watch.machine ctx relay Neighbor_watch.Relay);
  check "relay rebuilt empty";
  ignore (Neighbor_watch.machine ~initial_commit:(Bitvec.of_string "11") ctx relay Neighbor_watch.Relay);
  check "relay rebuilt with a carried prefix";
  ignore (Neighbor_watch.machine ctx source (Neighbor_watch.Source msg));
  check "source rebuilt"

let test_liar_vetoed_when_square_has_honest_node () =
  (* R = 4 on the grid gives analytic squares of side 2 holding 4 nodes
     each; a single liar per square is always vetoed, so no honest node
     ever delivers the fake message (Theorem 3's guarantee). *)
  let msg = Bitvec.of_string "1010" in
  let ctx, topology, source, machines =
    grid_ctx_and_machines ~side:9 ~radius:4.0 ~msg ~liars:[ 1; 30 ]
  in
  ignore ctx;
  let n = Topology.size topology in
  let waiters = Array.init n (fun i -> i <> source && i <> 1 && i <> 30) in
  let result = Engine.run ~idle_stop:20_000 ~topology ~machines ~waiters ~cap:500_000 () in
  for i = 0 to n - 1 do
    if i <> 1 && i <> 30 then begin
      match result.Engine.delivered.(i) with
      | Some bits ->
        Alcotest.(check bool)
          (Printf.sprintf "node %d not corrupted" i)
          true (Bitvec.equal bits msg)
      | None -> Alcotest.fail "honest node did not deliver"
    end
  done

let test_catchup_rescues_asymmetric_jam () =
  (* A scripted jammer sits where it can jam R6 for part of a square only;
     without the catch-up rule the square can deadlock (DESIGN.md).  With
     it, the broadcast still completes. *)
  let msg = Bitvec.of_string "1011" in
  let side = 9 in
  let radius = 4.0 in
  let deployment = Deployment.grid ~width:side ~height:side in
  let topology = Topology.build deployment (Propagation.disk_linf radius) in
  let source = Deployment.center_node deployment in
  let config =
    {
      (Neighbor_watch.analytic_config ~radius ~msg_len:(Bitvec.length msg)) with
      Neighbor_watch.catchup_failures = 8;
    }
  in
  let ctx = Neighbor_watch.make_ctx config ~topology ~source in
  let n = Deployment.size deployment in
  let jammer_id = (side * side) - 1 (* a corner: in range of some square members only *) in
  let budget = Budget.create 400 in
  let machines =
    Array.init n (fun i ->
        if i = source then Neighbor_watch.machine ctx i (Neighbor_watch.Source msg)
        else if i = jammer_id then
          Jammer.scripted (fun ~round:_ ~phase -> phase = 5) ~budget
        else Neighbor_watch.machine ctx i Neighbor_watch.Relay)
  in
  let waiters = Array.init n (fun i -> i <> source && i <> jammer_id) in
  let result = Engine.run ~idle_stop:30_000 ~topology ~machines ~waiters ~cap:2_000_000 () in
  let delivered_all =
    Array.for_all (fun x -> x) (Array.mapi (fun i w -> (not w) || result.Engine.delivered.(i) <> None) waiters)
  in
  Alcotest.(check bool) "all honest delivered despite R6 jamming" true delivered_all;
  Array.iteri
    (fun i d ->
      match d with
      | Some bits when waiters.(i) ->
        Alcotest.(check bool) "authentic" true (Bitvec.equal bits msg)
      | Some _ | None -> ())
    result.Engine.delivered

let test_pipelining_beats_store_and_forward () =
  let long = Bitvec.random (Rng.create 9) 12 in
  let _, piped = run_scenario ~msg:long ~n:120 ~map:12.0 () in
  let _, naive = run_scenario ~msg:long ~n:120 ~map:12.0 ~pipelined:false () in
  let sp = Scenario.summarize piped and sn = Scenario.summarize naive in
  Alcotest.(check bool) "both complete" true
    (sp.Scenario.completion_rate >= 0.99 && sn.Scenario.completion_rate >= 0.99);
  Alcotest.(check bool) "pipelining is materially faster" true
    (float_of_int sn.Scenario.rounds >= 1.5 *. float_of_int sp.Scenario.rounds)

let test_realistic_channel () =
  (* Capture effect plus 1% packet loss (the WSNet-like channel): the
     protocol still completes — lost packets only look like collisions,
     which the 2Bit layer already treats as activity and retries. *)
  let spec =
    {
      Scenario.default with
      map_w = 10.0;
      map_h = 10.0;
      deployment = Scenario.Uniform 150;
      radius = 3.0;
      channel = Channel.realistic;
      seed = 4;
    }
  in
  let s = Scenario.summarize (Scenario.run spec) in
  Alcotest.(check bool) "completes under loss and capture" true
    (s.Scenario.completion_rate >= 0.99);
  Alcotest.(check (float 1e-9)) "still authenticated" 1.0 s.Scenario.correct_of_delivered

let test_liar_yields_in_mixed_square () =
  (* A liar alone among honest square-mates gets vetoed, gives up, and ends
     up relaying — and even delivering — the true message itself. *)
  let msg = Bitvec.of_string "1010" in
  let ctx, topology, source, machines =
    grid_ctx_and_machines ~side:9 ~radius:4.0 ~msg ~liars:[ 5 ]
  in
  ignore ctx;
  let n = Topology.size topology in
  let waiters = Array.init n (fun i -> i <> source && i <> 5) in
  let result = Engine.run ~idle_stop:20_000 ~topology ~machines ~waiters ~cap:500_000 () in
  (match result.Engine.delivered.(5) with
  | Some bits ->
    Alcotest.(check bool) "the liar itself converges to the truth" true (Bitvec.equal bits msg)
  | None -> Alcotest.fail "yielded liar never delivered");
  Array.iteri
    (fun i delivered ->
      if waiters.(i) then begin
        match delivered with
        | Some bits -> Alcotest.(check bool) "honest unaffected" true (Bitvec.equal bits msg)
        | None -> Alcotest.fail (Printf.sprintf "node %d missed the broadcast" i)
      end)
    result.Engine.delivered

let test_square_side_must_reach_neighbors () =
  (* Squares must be small enough that members hear each other and every
     node of an adjacent square; with side 2R the meta-node abstraction
     breaks down on a Euclidean radio and the broadcast no longer blankets
     the map. *)
  let _, good = run_scenario ~n:200 ~radius:3.0 () in
  let _, bad = run_scenario ~n:200 ~radius:3.0 ~square_side:6.0 () in
  let sg = Scenario.summarize good and sb = Scenario.summarize bad in
  Alcotest.(check bool) "R/3 side blankets the map" true (sg.Scenario.completion_rate >= 0.99);
  Alcotest.(check bool) "2R side degrades" true
    (sb.Scenario.completion_rate < sg.Scenario.completion_rate)

(* --- wakeup contract and progress (direct API) ------------------------ *)

(* NW by hand on a 150-node uniform deployment, so tests can reach the
   context and hook every machine.  [role i] picks each non-source node's
   device; each call builds a fresh context and jammer rng. *)
let assemble ~seed ~role =
  let n = 150 and radius = 3.0 in
  let deployment = Deployment.uniform (Rng.create seed) ~n ~width:10.0 ~height:10.0 in
  let topology = Topology.build deployment (Propagation.friis radius) in
  let source = Deployment.center_node deployment in
  let config = Neighbor_watch.default_config ~radius ~msg_len:(Bitvec.length message) in
  let ctx = Neighbor_watch.make_ctx config ~topology ~source in
  let fake = Scenario.fake_message message in
  let jam_rng = Rng.create (seed + 1) in
  let roles = Array.init n (fun i -> if i = source then `Source else role i) in
  let machines =
    Array.mapi
      (fun i -> function
        | `Source -> Neighbor_watch.machine ctx i (Neighbor_watch.Source message)
        | `Relay -> Neighbor_watch.machine ctx i Neighbor_watch.Relay
        | `Liar -> Neighbor_watch.machine ctx i (Neighbor_watch.Liar fake)
        | `Jammer ->
          (* budget to outlast the broadcast, which a 60-blip jammer does not *)
          Jammer.veto_jammer ~rng:(Rng.split jam_rng) ~budget:(Budget.create 1_000)
            ~probability:0.2)
      roles
  in
  let waiters = Array.map (fun r -> r = `Relay) roles in
  let cycle_rounds =
    Schedule.cycle (Neighbor_watch.schedule ctx) * Schedule.rounds_per_interval
  in
  (ctx, topology, roles, machines, waiters, cycle_rounds)

(* [on_poll i r] runs before every observe (one per poll), [on_transmit i r]
   after every transmitting act. *)
let hook_polls ?(on_transmit = fun _ _ -> ()) ~on_poll i (m : Msg.t Engine.machine) =
  {
    m with
    Engine.act =
      (fun r ->
        let a = m.Engine.act r in
        (match a with Engine.Transmit _ -> on_transmit i r | Engine.Silent -> ());
        a);
    observe =
      (fun r o ->
        on_poll i r;
        m.Engine.observe r o);
    observe_packed =
      Option.map
        (fun f r p slots ->
          on_poll i r;
          f r p slots)
        m.Engine.observe_packed;
  }

(* Quiet intervals: a node with nothing to send and every stream at an even
   index sleeps until a transmission reaches it, a node on an odd-index
   stream is polled through that slot's whole interval, and rounds in which
   nothing needs a poll are skipped outright. *)
let test_quiet_interval_polls () =
  let ctx, topology, _, machines, waiters, cycle_rounds =
    assemble ~seed:5 ~role:(fun _ -> `Relay)
  in
  let n = Array.length machines in
  let { Graph.out_off; out_rcv; _ } = Graph.csr (Topology.graph topology) in
  let polled = Hashtbl.create 4096 in
  (* This round's transmitters (acts precede observes within a round), and
     the nodes they reached, rebuilt at the first poll of each round. *)
  let tx_round = ref (-1) and transmitters = ref [] in
  let reach_round = ref (-1) and reached = Array.make n false in
  let last_reached = Array.make n (-1) in
  let quiet_checked = ref 0 and violations = ref [] in
  let executed = ref 0 in
  let on_transmit i r =
    if !tx_round <> r then begin
      tx_round := r;
      transmitters := []
    end;
    transmitters := i :: !transmitters
  in
  (* The listener filter: a node polled in a round whose listener set
     leaves it out must have been scheduled for that round (its wakeup
     contract named it), and a reached node outside the set is skipped. *)
  let listeners = Neighbor_watch.listeners ctx in
  let hears r i =
    let set = listeners r in
    (set.(i / Bitvec.bits_per_word) lsr (i mod Bitvec.bits_per_word)) land 1 = 1
  in
  let wakes = Hashtbl.create 4096 and unscheduled = ref [] in
  let quiet i =
    Neighbor_watch.unsent_bits ctx i = 0
    && List.for_all (fun (_, count) -> count land 1 = 0) (Neighbor_watch.stream_counts ctx i)
  in
  let on_poll i r =
    if !reach_round <> r then begin
      reach_round := r;
      incr executed;
      Array.fill reached 0 n false;
      if !tx_round = r then
        List.iter
          (fun t ->
            for k = out_off.(t) to out_off.(t + 1) - 1 do
              reached.(out_rcv.(k)) <- true
            done)
          !transmitters
    end;
    Hashtbl.replace polled (i, r) ();
    if not (hears r i || Hashtbl.mem wakes (i, r) || (i = 0 && r = 0)) then
      unscheduled := (i, r) :: !unscheduled;
    (* Round 0 always runs node 0 (construction-time deliveries); after
       that, a quiet node not yet reached in this interval has no reason
       to be polled unless something reaches it now. *)
    let interval_start = Schedule.first_round_of_interval (Schedule.interval_of_round r) in
    if r > 0 && last_reached.(i) < interval_start && quiet i then begin
      incr quiet_checked;
      if not reached.(i) then violations := (i, r) :: !violations
    end;
    if reached.(i) then last_reached.(i) <- r
  in
  let machines = Array.mapi (hook_polls ~on_transmit ~on_poll) machines in
  (* Every round a wakeup contract names, so a poll there was scheduled. *)
  let machines =
    Array.mapi
      (fun i (m : Msg.t Engine.machine) ->
        {
          m with
          Engine.next_active =
            (fun q ->
              let at = m.Engine.next_active q in
              Hashtbl.replace wakes (i, max q at) ();
              at);
        })
      machines
  in
  let cycle = Schedule.cycle (Neighbor_watch.schedule ctx) in
  (* Before each interval (at the tap of the round ending the previous
     one), note every node whose stream on the interval's slot is odd;
     and count the reached nodes a round's listener set leaves out. *)
  let odd_listeners = ref [] and reached_outside = ref 0 in
  let tap (d : Engine.round_digest) =
    Array.iteri
      (fun i fp -> if fp <> 0 && not (hears d.Engine.round i) then incr reached_outside)
      d.Engine.observations;
    if Schedule.phase_of_round d.Engine.round = Schedule.rounds_per_interval - 1 then begin
      let interval = Schedule.interval_of_round d.Engine.round + 1 in
      let slot = interval mod cycle in
      for i = 0 to n - 1 do
        match List.assoc_opt slot (Neighbor_watch.stream_counts ctx i) with
        | Some count when count land 1 = 1 -> odd_listeners := (i, interval) :: !odd_listeners
        | Some _ | None -> ()
      done
    end
  in
  let result =
    Engine.run ~mode:`Sparse ~tap ~idle_stop:((3 * cycle_rounds) + 64) ~listeners ~topology
      ~machines ~waiters ~cap:50_000 ()
  in
  let rounds_used = result.Engine.rounds_used in
  Alcotest.(check bool) "some reached node was outside its round's listener set" true
    (!reached_outside > 0);
  (match !unscheduled with
  | [] -> ()
  | (i, r) :: _ ->
    Alcotest.failf "%d poll(s) outside the listener set and not scheduled, e.g. node %d in round %d"
      (List.length !unscheduled) i r);
  Alcotest.(check bool) "quiet polls were checked" true (!quiet_checked > 0);
  (match !violations with
  | [] -> ()
  | (i, r) :: _ ->
    Alcotest.failf "%d quiet poll(s) with no transmission reaching the node, e.g. node %d in round %d"
      (List.length !violations) i r);
  let odd_checked = ref 0 in
  List.iter
    (fun (i, interval) ->
      let first = Schedule.first_round_of_interval interval in
      if first + Schedule.rounds_per_interval <= rounds_used then begin
        incr odd_checked;
        for r = first to first + Schedule.rounds_per_interval - 1 do
          if not (Hashtbl.mem polled (i, r)) then
            Alcotest.failf "node %d listens on an odd stream in interval %d but was not polled in round %d"
              i interval r
        done
      end)
    !odd_listeners;
  Alcotest.(check bool) "odd-stream intervals were checked" true (!odd_checked > 0);
  Alcotest.(check bool)
    (Printf.sprintf "rounds with a poll (%d) fewer than rounds used (%d)" !executed rounds_used)
    true (!executed < rounds_used)

(* Deterministic work gate: one honest uniform-disk NW cell at n = 2 000
   and target degree 12 (the S1 campaign's cell shape, as scale-sparse
   runs it at n = 10^4), with Scenario.run's idle cut-off, stall detector
   and listener sets.  Polls and executed rounds are exact counts of the
   seeded simulation, so they gate without a wall-clock band: either
   growing past 1.2x its measured value fails.  Measured: 3 977 polls in
   636 executed rounds of the run's 3 536; without the listener sets the
   loop polled 7 449 times, which this ceiling rejects. *)
let measured_polls = 3_977
let measured_executed_rounds = 636

(* The gated cell's spec, topology and a fresh context. *)
let budget_cell () =
  let spec =
    Scale_sweep.cell_spec
      ~base:{ Scenario.default with message = Bitvec.of_string "10"; seed = 1 }
      ~klass:Scale_sweep.Uniform_radio ~nodes:2_000 ~density:12.0
  in
  let n = 2_000 in
  let deployment =
    Deployment.uniform (Rng.split (Rng.create spec.Scenario.seed)) ~n ~width:spec.Scenario.map_w
      ~height:spec.Scenario.map_h
  in
  let topology = Topology.build deployment (Propagation.disk_l2 spec.Scenario.radius) in
  let source = Deployment.center_node deployment in
  let msg = spec.Scenario.message in
  let config =
    Neighbor_watch.default_config ~radius:spec.Scenario.radius ~msg_len:(Bitvec.length msg)
  in
  (spec, n, topology, source, msg, Neighbor_watch.make_ctx config ~topology ~source)

(* One broadcast on the gated cell under [mode], with Scenario.run's idle
   cut-off, stall detector and listener sets; [on_poll] sees every
   observed (node, round). *)
let run_budget_cell ?(on_poll = fun _ _ -> ()) mode =
  let spec, n, topology, source, msg, ctx = budget_cell () in
  let machines =
    Array.init n (fun i ->
        hook_polls ~on_poll i
          (Neighbor_watch.machine ctx i
             (if i = source then Neighbor_watch.Source msg else Neighbor_watch.Relay)))
  in
  let cycle_rounds =
    Schedule.cycle (Neighbor_watch.schedule ctx) * Schedule.rounds_per_interval
  in
  let stop_when =
    let last_progress = ref (-1) and flat = ref 0 in
    fun () ->
      let p = Neighbor_watch.progress ctx in
      if p <> !last_progress then begin
        last_progress := p;
        flat := 0
      end
      else incr flat;
      !flat >= max 1 (25 * cycle_rounds / 96)
  in
  let _ =
    Engine.run ~mode ~idle_stop:((3 * cycle_rounds) + 64) ~stop_when
      ~listeners:(Neighbor_watch.listeners ctx) ~topology ~machines
      ~waiters:(Array.init n (fun i -> i <> source))
      ~cap:spec.Scenario.cap ()
  in
  (ctx, n, source)

let test_poll_budget () =
  let polls = ref 0 and executed = ref 0 and last = ref (-1) in
  let on_poll _ r =
    incr polls;
    if r <> !last then begin
      last := r;
      incr executed
    end
  in
  let _ = run_budget_cell ~on_poll `Sparse in
  let within what measured actual =
    Alcotest.(check bool)
      (Printf.sprintf "%s %d within 1.2x of the measured %d" what actual measured)
      true
      (float_of_int actual <= 1.2 *. float_of_int measured)
  in
  within "polls" measured_polls !polls;
  within "executed rounds" measured_executed_rounds !executed

(* A relay builds its streams, buffers and 2Bit machine at its first
   interval.  Dense polls every machine from round 0, so it builds them
   all; Sparse builds only the few that act.  Every node must end in the
   same state either way. *)
let test_deferred_state_dense_sparse () =
  let dense, n, _ = run_budget_cell `Dense in
  let sparse, _, _ = run_budget_cell `Sparse in
  for i = 0 to n - 1 do
    let label what = Printf.sprintf "node %d %s" i what in
    Alcotest.(check string)
      (label "committed_bits")
      (Bitvec.to_string (Neighbor_watch.committed_bits dense i))
      (Bitvec.to_string (Neighbor_watch.committed_bits sparse i));
    Alcotest.(check (list (pair int int)))
      (label "stream_counts")
      (Neighbor_watch.stream_counts dense i)
      (Neighbor_watch.stream_counts sparse i);
    Alcotest.(check int)
      (label "unsent_bits")
      (Neighbor_watch.unsent_bits dense i)
      (Neighbor_watch.unsent_bits sparse i)
  done

(* A relay the engine never polled never built its state, and reads as a
   fresh one: nothing queued, nothing committed, every stream at 0. *)
let test_unpolled_relay_reads_fresh () =
  let polled = Hashtbl.create 256 in
  let ctx, n, source = run_budget_cell ~on_poll:(fun i _ -> Hashtbl.replace polled i ()) `Sparse in
  let unpolled = List.filter (fun i -> i <> source && not (Hashtbl.mem polled i)) (List.init n Fun.id) in
  Alcotest.(check bool) "some relay was never polled" true (unpolled <> []);
  List.iter
    (fun i ->
      let label what = Printf.sprintf "node %d %s" i what in
      Alcotest.(check int) (label "unsent_bits") 0 (Neighbor_watch.unsent_bits ctx i);
      Alcotest.(check int) (label "committed bits") 0
        (Bitvec.length (Neighbor_watch.committed_bits ctx i));
      let counts = Neighbor_watch.stream_counts ctx i in
      Alcotest.(check bool) (label "listens to some stream") true (counts <> []);
      List.iter (fun (_, count) -> Alcotest.(check int) (label "stream count") 0 count) counts)
    unpolled

(* Deterministic allocation gate on the same cell: building a machine
   costs its state record and the engine closures, a few dozen words; a
   relay's streams, buffers and 2Bit machine wait for its first interval.
   The minor-heap count of a seeded construction is exact, so it gates
   without a clock, at the measured count rounded up.  Measured: 53.1
   words per machine, where building every relay's streams and 2Bit
   state at once cost 306.5 and a cycle-sized slot table per machine
   607. *)
let max_words_per_machine = 54.0

let test_construction_words () =
  let _, n, _, source, msg, ctx = budget_cell () in
  let before = Gc.minor_words () in
  let machines =
    Array.init n (fun i ->
        Neighbor_watch.machine ctx i
          (if i = source then Neighbor_watch.Source msg else Neighbor_watch.Relay))
  in
  let per_machine = (Gc.minor_words () -. before) /. float_of_int (Array.length machines) in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per machine, at most %.0f" per_machine
       max_words_per_machine)
    true
    (per_machine <= max_words_per_machine)

(* The flat progress array against the fold the library used to run over
   its state table (committed bits plus received stream bits, summed over
   every machine built), at every stall-detector call.  Lying matters: a
   liar's give-up clears its committed prefix and lowers the count. *)
let progress_oracle_case (label, role) (mname, mode) =
  Alcotest.test_case (label ^ "/" ^ mname) `Quick (fun () ->
      let ctx, topology, roles, machines, waiters, cycle_rounds = assemble ~seed:9 ~role in
      let reference () =
        let total = ref 0 in
        Array.iteri
          (fun i r ->
            if r <> `Jammer then
              total :=
                !total
                + Bitvec.length (Neighbor_watch.committed_bits ctx i)
                + List.fold_left (fun acc (_, count) -> acc + count) 0
                    (Neighbor_watch.stream_counts ctx i))
          roles;
        !total
      in
      let calls = ref 0 and mismatches = ref [] in
      let stop_when () =
        incr calls;
        let flat = Neighbor_watch.progress ctx and folded = reference () in
        if flat <> folded then mismatches := (!calls, flat, folded) :: !mismatches;
        false
      in
      let _ =
        Engine.run ~mode ~stop_stride:12 ~stop_when ~idle_stop:((3 * cycle_rounds) + 64)
          ~topology ~machines ~waiters ~cap:20_000 ()
      in
      Alcotest.(check bool) "stop_when was called" true (!calls > 10);
      (match !mismatches with
      | [] -> ()
      | (call, flat, folded) :: _ ->
        Alcotest.failf "progress %d but the fold says %d (stop_when call %d)" flat folded call);
      if label = "lying" then begin
        let gave_up = ref false in
        Array.iteri
          (fun i r ->
            if r = `Liar
               && not (Bitvec.equal (Neighbor_watch.committed_bits ctx i)
                         (Scenario.fake_message message))
            then gave_up := true)
          roles;
        Alcotest.(check bool) "some liar gave up" true !gave_up
      end)

(* --- bad input: the cause is named ------------------------------------- *)

(* A 5x5 grid context with no machine built yet. *)
let bare_ctx ~msg_len =
  let deployment = Deployment.grid ~width:5 ~height:5 in
  let topology = Topology.build deployment (Propagation.disk_linf 2.0) in
  let source = Deployment.center_node deployment in
  let config = Neighbor_watch.analytic_config ~radius:2.0 ~msg_len in
  (Neighbor_watch.make_ctx config ~topology ~source, Topology.size topology, source)

let accessors =
  [
    ("committed_bits", fun ctx id -> ignore (Neighbor_watch.committed_bits ctx id));
    ("stream_counts", fun ctx id -> ignore (Neighbor_watch.stream_counts ctx id));
    ("unsent_bits", fun ctx id -> ignore (Neighbor_watch.unsent_bits ctx id));
  ]

let bad_id_case (label, id_of_n) =
  Alcotest.test_case label `Quick (fun () ->
      let ctx, n, source = bare_ctx ~msg_len:2 in
      ignore (Neighbor_watch.machine ctx source (Neighbor_watch.Source (Bitvec.of_string "10")));
      let id = id_of_n n in
      List.iter
        (fun (fn, f) ->
          Alcotest.check_raises fn
            (Invalid_argument (Printf.sprintf "Neighbor_watch.%s: node %d is not in 0..%d" fn id (n - 1)))
            (fun () -> f ctx id))
        accessors)

let test_node_without_machine () =
  let ctx, _, _ = bare_ctx ~msg_len:2 in
  List.iter
    (fun (fn, f) ->
      Alcotest.check_raises fn
        (Invalid_argument (Printf.sprintf "Neighbor_watch.%s: node 3 has no machine" fn))
        (fun () -> f ctx 3))
    accessors

(* Each payload a constructor takes, one bit off: the error names both
   lengths, and the failed node gets no machine. *)
let payload_case (label, initial_commit, role, message) =
  Alcotest.test_case label `Quick (fun () ->
      let ctx, _, source = bare_ctx ~msg_len:4 in
      let id = match role with Neighbor_watch.Source _ -> source | _ -> 0 in
      Alcotest.check_raises label (Invalid_argument message) (fun () ->
          ignore (Neighbor_watch.machine ?initial_commit ctx id role));
      Alcotest.check_raises "no machine left behind"
        (Invalid_argument
           (Printf.sprintf "Neighbor_watch.committed_bits: node %d has no machine" id))
        (fun () -> ignore (Neighbor_watch.committed_bits ctx id)))

let payload_specs =
  [
    ( "Source message of 3 bits",
      None,
      Neighbor_watch.Source (Bitvec.of_string "101"),
      "Neighbor_watch.machine: Source message has 3 bits, expected msg_len = 4" );
    ( "Liar message of 5 bits",
      None,
      Neighbor_watch.Liar (Bitvec.of_string "10110"),
      "Neighbor_watch.machine: Liar message has 5 bits, expected msg_len = 4" );
    ( "initial_commit of 5 bits",
      Some (Bitvec.of_string "10110"),
      Neighbor_watch.Relay,
      "Neighbor_watch.machine: initial_commit has 5 bits, expected at most msg_len = 4" );
  ]

let progress_specs =
  [
    ("honest", fun _ -> `Relay);
    ("lying", fun i -> if i mod 8 = 3 then `Liar else `Relay);
    ("jamming", fun i -> if i mod 10 = 7 then `Jammer else `Relay);
  ]

let () =
  Alcotest.run "neighbor_watch"
    [
      ( "dissemination",
        [
          Alcotest.test_case "grid broadcast completes" `Quick test_grid_broadcast_completes;
          Alcotest.test_case "uniform broadcast completes" `Quick
            test_uniform_broadcast_completes;
          Alcotest.test_case "no fake deliveries without liars" `Quick
            test_deliveries_never_fake_without_liars;
          Alcotest.test_case "2-voting conservative" `Quick test_two_voting_requires_two_providers;
          Alcotest.test_case "committed bits and progress" `Quick test_committed_bits_and_progress;
          Alcotest.test_case "progress after a rebuilt machine" `Quick test_progress_after_rebuild;
        ] );
      ( "faults",
        [
          Alcotest.test_case "crash graceful" `Quick test_crash_reduces_completion_gracefully;
          Alcotest.test_case "jamming delays, completes" `Quick test_jamming_delays_but_completes;
          Alcotest.test_case "lying contained at 3%" `Quick test_lying_contained_at_low_fraction;
          Alcotest.test_case "heavy lying corrupts" `Quick test_lying_wins_eventually;
          Alcotest.test_case "wedged run cut early" `Quick test_stalled_run_terminates_early;
          Alcotest.test_case "liar bookkeeping" `Quick test_liars_count_as_delivered_fake;
          Alcotest.test_case "liar vetoed inside square" `Quick
            test_liar_vetoed_when_square_has_honest_node;
          Alcotest.test_case "catch-up under asymmetric jam" `Quick
            test_catchup_rescues_asymmetric_jam;
          Alcotest.test_case "realistic channel" `Quick test_realistic_channel;
          Alcotest.test_case "liar yields in mixed square" `Quick
            test_liar_yields_in_mixed_square;
        ] );
      ( "design",
        [
          Alcotest.test_case "pipelining beats store-and-forward" `Quick
            test_pipelining_beats_store_and_forward;
          Alcotest.test_case "square side sizing" `Quick test_square_side_must_reach_neighbors;
        ] );
      ( "wakeup contract",
        [
          Alcotest.test_case "quiet intervals: who is polled when" `Quick
            test_quiet_interval_polls;
          Alcotest.test_case "poll budget at n = 2000" `Quick test_poll_budget;
          Alcotest.test_case "construction words at n = 2000" `Quick test_construction_words;
          Alcotest.test_case "deferred state: Dense and Sparse agree" `Quick
            test_deferred_state_dense_sparse;
          Alcotest.test_case "unpolled relay reads fresh" `Quick test_unpolled_relay_reads_fresh;
        ] );
      ( "bad input",
        List.map bad_id_case [ ("node id -1", fun _ -> -1); ("node id n", fun n -> n) ]
        @ Alcotest.test_case "node without a machine" `Quick test_node_without_machine
          :: List.map payload_case payload_specs );
      ( "progress oracle",
        List.concat_map
          (fun spec ->
            List.map (progress_oracle_case spec) [ ("sparse", `Sparse); ("dense", `Dense) ])
          progress_specs );
    ]
