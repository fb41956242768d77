(* End-to-end tests for MultiPathRB: authenticated dissemination via
   SOURCE/COMMIT/HEARD voting, tolerance tuning, liar behaviour, and the
   HEARD relay cap. *)

let message = Bitvec.of_string "101"

let run ?(seed = 1) ?(tolerance = 1) ?(faults = Scenario.No_faults) ?(n = 80) ?(map = 8.0)
    ?(radius = 2.0) ?(relay_limit = Some 4) ?(radio = Scenario.Friis) () =
  let spec =
    {
      Scenario.default with
      map_w = map;
      map_h = map;
      deployment = Scenario.Uniform n;
      radio;
      radius;
      message;
      protocol = Scenario.Multi_path { tolerance };
      faults;
      heard_relay_limit = relay_limit;
      seed;
    }
  in
  (spec, Scenario.run spec)

let test_completes_and_correct () =
  let _, result = run () in
  let s = Scenario.summarize result in
  Alcotest.(check bool) "completes" true (s.Scenario.completion_rate >= 0.95);
  Alcotest.(check (float 1e-9)) "all correct" 1.0 s.Scenario.correct_of_delivered

let test_grid_exact () =
  let spec =
    {
      Scenario.default with
      map_w = 8.0;
      map_h = 8.0;
      deployment = Scenario.Grid;
      radio = Scenario.Disk_linf;
      radius = 2.0;
      message;
      protocol = Scenario.Multi_path { tolerance = 1 };
      heard_relay_limit = Some 4;
    }
  in
  let s = Scenario.summarize (Scenario.run spec) in
  Alcotest.(check bool) "grid completes" true (s.Scenario.completion_rate >= 0.99);
  Alcotest.(check (float 1e-9)) "grid correct" 1.0 s.Scenario.correct_of_delivered

let test_multiple_seeds_all_correct () =
  List.iter
    (fun seed ->
      let _, result = run ~seed () in
      let s = Scenario.summarize result in
      Alcotest.(check int)
        (Printf.sprintf "seed %d: delivered = correct" seed)
        s.Scenario.delivered_any s.Scenario.delivered_correct)
    [ 2; 3; 4 ]

let test_higher_tolerance_harder_completion () =
  let _, low = run ~tolerance:1 ~n:60 () in
  let _, high = run ~tolerance:6 ~relay_limit:(Some 9) ~n:60 () in
  let sl = Scenario.summarize low and sh = Scenario.summarize high in
  Alcotest.(check bool) "t=6 completes no more than t=1" true
    (sh.Scenario.completion_rate <= sl.Scenario.completion_rate +. 1e-9)

let test_tolerance_zero_is_fragile () =
  (* With t = 0 a single COMMIT suffices, so a lying neighbour corrupts
     immediately: the attack machinery works. *)
  let corrupted =
    List.exists
      (fun seed ->
        let _, result = run ~tolerance:0 ~faults:(Scenario.Lying 0.15) ~seed () in
        let s = Scenario.summarize result in
        s.Scenario.delivered_correct < s.Scenario.delivered_any)
      [ 1; 2; 3; 4 ]
  in
  Alcotest.(check bool) "t=0 gets corrupted by liars" true corrupted

let test_tolerance_resists_light_lying () =
  let _, result = run ~tolerance:2 ~relay_limit:(Some 5) ~faults:(Scenario.Lying 0.04) ~seed:2 () in
  let s = Scenario.summarize result in
  Alcotest.(check bool) "mostly correct under 4% liars" true
    (s.Scenario.correct_of_delivered >= 0.9)

let test_relay_cap_reduces_traffic () =
  let _, capped = run ~relay_limit:(Some 2) () in
  let _, generous = run ~relay_limit:(Some 12) () in
  let sc = Scenario.summarize capped and sg = Scenario.summarize generous in
  Alcotest.(check bool) "cap saves broadcasts" true
    (sc.Scenario.total_broadcasts < sg.Scenario.total_broadcasts)

let test_progress_and_committed_bits () =
  let deployment = Deployment.grid ~width:7 ~height:7 in
  let topology = Topology.build deployment (Propagation.disk_linf 2.0) in
  let source = Deployment.center_node deployment in
  let config =
    {
      (Multi_path.default_config ~radius:2.0 ~tolerance:1 ~msg_len:2) with
      Multi_path.heard_relay_limit = Some 3;
    }
  in
  let ctx = Multi_path.make_ctx config ~topology ~source in
  let msg = Bitvec.of_string "10" in
  let n = Topology.size topology in
  let machines =
    Array.init n (fun i ->
        if i = source then Multi_path.machine ctx i (Multi_path.Source msg)
        else Multi_path.machine ctx i Multi_path.Relay)
  in
  let before = Multi_path.progress ctx in
  let waiters = Array.init n (fun i -> i <> source) in
  let result = Engine.run ~idle_stop:50_000 ~topology ~machines ~waiters ~cap:3_000_000 () in
  Alcotest.(check bool) "progress grew" true (Multi_path.progress ctx > before);
  Alcotest.(check bool) "no cap" false result.Engine.hit_cap;
  for i = 0 to n - 1 do
    Alcotest.(check string)
      (Printf.sprintf "node %d committed" i)
      "10"
      (Bitvec.to_string (Multi_path.committed_bits ctx i))
  done

(* The flat progress array against the fold the library used to run over
   its state table (committed bits plus received stream bits, summed over
   every machine built), at every stall-detector call.  Liars commit their
   fake message at construction, so the lying runs start above zero. *)
let progress_oracle_case (label, liar) (mname, mode) =
  Alcotest.test_case (label ^ "/" ^ mname) `Quick (fun () ->
      let n = 60 and radius = 2.0 in
      let deployment = Deployment.uniform (Rng.create 17) ~n ~width:6.0 ~height:6.0 in
      let topology = Topology.build deployment (Propagation.friis radius) in
      let source = Deployment.center_node deployment in
      let config =
        {
          (Multi_path.default_config ~radius ~tolerance:1 ~msg_len:(Bitvec.length message)) with
          Multi_path.heard_relay_limit = Some 3;
        }
      in
      let ctx = Multi_path.make_ctx config ~topology ~source in
      let fake = Scenario.fake_message message in
      let machines =
        Array.init n (fun i ->
            if i = source then Multi_path.machine ctx i (Multi_path.Source message)
            else if liar i then Multi_path.machine ctx i (Multi_path.Liar fake)
            else Multi_path.machine ctx i Multi_path.Relay)
      in
      let reference () =
        let total = ref 0 in
        for i = 0 to n - 1 do
          total :=
            !total
            + Bitvec.length (Multi_path.committed_bits ctx i)
            + List.fold_left (fun acc (_, count) -> acc + count) 0 (Multi_path.stream_counts ctx i)
        done;
        !total
      in
      let calls = ref 0 and mismatches = ref [] and last = ref 0 in
      let stop_when () =
        incr calls;
        let flat = Multi_path.progress ctx and folded = reference () in
        if flat <> folded then mismatches := (!calls, flat, folded) :: !mismatches;
        last := flat;
        false
      in
      let waiters = Array.init n (fun i -> i <> source && not (liar i)) in
      let _ =
        Engine.run ~mode ~stop_stride:12 ~stop_when ~topology ~machines ~waiters ~cap:20_000 ()
      in
      Alcotest.(check bool) "stop_when was called" true (!calls > 10);
      (match !mismatches with
      | [] -> ()
      | (call, flat, folded) :: _ ->
        Alcotest.failf "progress %d but the fold says %d (stop_when call %d)" flat folded call);
      (* Every honest node commits the message, and every link carries
         stream bits: the counter saw more than the construction commits. *)
      Alcotest.(check bool) "streams were received" true (!last > n * Bitvec.length message))

let progress_specs = [ ("honest", fun _ -> false); ("lying", fun i -> i mod 12 = 5) ]

(* --- bad input: the cause is named ------------------------------------- *)

(* A 5x5 grid context with only the source's machine built. *)
let bare_ctx () =
  let deployment = Deployment.grid ~width:5 ~height:5 in
  let topology = Topology.build deployment (Propagation.disk_linf 2.0) in
  let source = Deployment.center_node deployment in
  let config = Multi_path.default_config ~radius:2.0 ~tolerance:1 ~msg_len:(Bitvec.length message) in
  (Multi_path.make_ctx config ~topology ~source, Topology.size topology, source)

let bad_id_case (label, id_of_n) =
  Alcotest.test_case label `Quick (fun () ->
      let ctx, n, source = bare_ctx () in
      ignore (Multi_path.machine ctx source (Multi_path.Source message));
      let id = id_of_n n in
      List.iter
        (fun (fn, f) ->
          Alcotest.check_raises fn
            (Invalid_argument (Printf.sprintf "Multi_path.%s: node %d is not in 0..%d" fn id (n - 1)))
            (fun () -> f ctx id))
        [
          ("committed_bits", fun ctx id -> ignore (Multi_path.committed_bits ctx id));
          ("stream_counts", fun ctx id -> ignore (Multi_path.stream_counts ctx id));
        ])

(* Each role payload one bit off: the error names both lengths, and the
   failed node gets no machine. *)
let payload_case (label, role, expected) =
  Alcotest.test_case label `Quick (fun () ->
      let ctx, _, source = bare_ctx () in
      Alcotest.check_raises label (Invalid_argument expected) (fun () ->
          ignore (Multi_path.machine ctx source role));
      Alcotest.check_raises "no machine left behind"
        (Invalid_argument
           (Printf.sprintf "Multi_path.committed_bits: node %d has no machine" source))
        (fun () -> ignore (Multi_path.committed_bits ctx source)))

let payload_specs =
  [
    ( "Source message of 2 bits",
      Multi_path.Source (Bitvec.of_string "10"),
      "Multi_path.machine: Source message has 2 bits, expected msg_len = 3" );
    ( "Liar message of 4 bits",
      Multi_path.Liar (Bitvec.of_string "0101"),
      "Multi_path.machine: Liar message has 4 bits, expected msg_len = 3" );
  ]

let test_sources_beyond_range_need_votes () =
  (* Sanity on the voting path: nodes outside the source's sense range can
     only commit through COMMIT/HEARD quorums, and they do. *)
  let _, result = run ~map:12.0 ~n:180 ~seed:5 () in
  let sense = Propagation.sense_range (Propagation.friis 2.0) in
  let far_delivered = ref 0 and far_total = ref 0 in
  let source_pos = Topology.position result.Scenario.topology result.Scenario.source in
  Array.iteri
    (fun i delivered ->
      if i <> result.Scenario.source then begin
        let pos = Topology.position result.Scenario.topology i in
        if Point.dist_l2 pos source_pos > sense then begin
          incr far_total;
          if delivered <> None then incr far_delivered
        end
      end)
    result.Scenario.engine.Engine.delivered;
  Alcotest.(check bool) "there are far nodes" true (!far_total > 0);
  Alcotest.(check bool) "most far nodes committed via voting" true
    (float_of_int !far_delivered >= 0.9 *. float_of_int !far_total)

(* Deterministic work gate, in the style of test_neighbor_watch's poll
   budget: one honest MultiPathRB broadcast on a seeded degree-8 expander
   (mp-expander's cell at 300 nodes), run by Scenario.run with its
   listener sets.  Polls and executed rounds are exact counts of the
   seeded simulation: either growing past 1.2x its measured value fails.
   Measured: 2 302 723 polls in 78 582 executed rounds; without the
   listener sets the loop polled 3 809 291 times, which this ceiling
   rejects. *)
let measured_polls = 2_302_723
let measured_executed_rounds = 78_582

let test_poll_budget () =
  let spec =
    {
      Scenario.default with
      deployment = Scenario.Expander { n = 300; degree = 8 };
      message = Bitvec.of_string "10";
      protocol = Scenario.Multi_path { tolerance = 1 };
      heard_relay_limit = Some 4;
      seed = 1;
    }
  in
  let polls = ref 0 and executed = ref 0 and last = ref (-1) in
  let count r =
    incr polls;
    if r <> !last then begin
      last := r;
      incr executed
    end
  in
  let hook (m : Msg.t Engine.machine) =
    {
      m with
      Engine.observe =
        (fun r o ->
          count r;
          m.Engine.observe r o);
      observe_packed =
        Option.map
          (fun f r p slots ->
            count r;
            f r p slots)
          m.Engine.observe_packed;
    }
  in
  let result = Scenario.run ~wrap:(fun ~listeners:_ machines -> Array.map hook machines) spec in
  Alcotest.(check (float 1e-9)) "every honest node delivers the message" 1.0
    (Scenario.summarize result).Scenario.correct_rate;
  let within what measured actual =
    Alcotest.(check bool)
      (Printf.sprintf "%s %d within 1.2x of the measured %d" what actual measured)
      true
      (float_of_int actual <= 1.2 *. float_of_int measured)
  in
  within "polls" measured_polls !polls;
  within "executed rounds" measured_executed_rounds !executed

(* Deterministic allocation gate on machine construction, mirroring
   test_neighbor_watch's: the minor words of building every machine of a
   seeded mp-expander broadcast (1 000 nodes, degree 8), set up as
   Scenario.run sets it up.  Measured: 679.8 words per machine at cycle
   103, of which three cycle-sized arrays per machine (the slot-to-peer
   table, the relevant-slot flags and the wake delta table) take about
   3 x 104; the gate is that count rounded up. *)
let max_words_per_machine = 680.0

let test_construction_words () =
  let spec =
    {
      Scenario.default with
      deployment = Scenario.Expander { n = 1000; degree = 8 };
      message = Bitvec.of_string "10";
      protocol = Scenario.Multi_path { tolerance = 1 };
      heard_relay_limit = Some 4;
      seed = 1;
    }
  in
  let topology = Scenario.topology spec in
  let source = Deployment.center_node (Topology.deployment topology) in
  let config =
    {
      (Multi_path.default_config ~radius:(Topology.rx_reach topology) ~tolerance:1
         ~msg_len:(Bitvec.length spec.Scenario.message))
      with
      heard_relay_limit = spec.Scenario.heard_relay_limit;
    }
  in
  let ctx = Multi_path.make_ctx config ~topology ~source in
  let n = Topology.size topology in
  let before = Gc.minor_words () in
  let machines =
    Array.init n (fun i ->
        Multi_path.machine ctx i
          (if i = source then Multi_path.Source spec.Scenario.message else Multi_path.Relay))
  in
  let per_machine = (Gc.minor_words () -. before) /. float_of_int (Array.length machines) in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per machine, at most %.0f" per_machine
       max_words_per_machine)
    true
    (per_machine <= max_words_per_machine)

let () =
  Alcotest.run "multi_path"
    [
      ( "dissemination",
        [
          Alcotest.test_case "completes and correct" `Quick test_completes_and_correct;
          Alcotest.test_case "grid exact" `Quick test_grid_exact;
          Alcotest.test_case "multiple seeds correct" `Quick test_multiple_seeds_all_correct;
          Alcotest.test_case "voting beyond source range" `Quick
            test_sources_beyond_range_need_votes;
          Alcotest.test_case "progress and committed bits" `Quick
            test_progress_and_committed_bits;
        ] );
      ( "tolerance",
        [
          Alcotest.test_case "higher t, harder completion" `Quick
            test_higher_tolerance_harder_completion;
          Alcotest.test_case "t=0 fragile" `Quick test_tolerance_zero_is_fragile;
          Alcotest.test_case "t=2 resists light lying" `Quick test_tolerance_resists_light_lying;
          Alcotest.test_case "relay cap reduces traffic" `Quick test_relay_cap_reduces_traffic;
        ] );
      ( "wakeup contract",
        [ Alcotest.test_case "poll budget on an expander" `Quick test_poll_budget ] );
      ( "allocation",
        [ Alcotest.test_case "construction words on an expander" `Quick test_construction_words ] );
      ( "bad input",
        List.map bad_id_case [ ("node id -1", fun _ -> -1); ("node id n", fun n -> n) ]
        @ List.map payload_case payload_specs );
      ( "progress oracle",
        List.concat_map
          (fun spec ->
            List.map (progress_oracle_case spec) [ ("sparse", `Sparse); ("dense", `Dense) ])
          progress_specs );
    ]
