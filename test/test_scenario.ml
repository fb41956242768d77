(* Tests for the scenario assembly and metrics layer. *)

let base =
  {
    Scenario.default with
    map_w = 8.0;
    map_h = 8.0;
    deployment = Scenario.Uniform 80;
    radius = 2.0;
    message = Bitvec.of_string "101";
  }

let test_deterministic () =
  let a = Scenario.summarize (Scenario.run base) in
  let b = Scenario.summarize (Scenario.run base) in
  Alcotest.(check int) "rounds equal" a.Scenario.rounds b.Scenario.rounds;
  Alcotest.(check int) "broadcasts equal" a.Scenario.total_broadcasts b.Scenario.total_broadcasts;
  Alcotest.(check int) "deliveries equal" a.Scenario.delivered_any b.Scenario.delivered_any

let test_seed_changes_runs () =
  let a = Scenario.summarize (Scenario.run base) in
  let b = Scenario.summarize (Scenario.run { base with Scenario.seed = base.Scenario.seed + 1 }) in
  Alcotest.(check bool) "some metric differs" true
    (a.Scenario.rounds <> b.Scenario.rounds
    || a.Scenario.total_broadcasts <> b.Scenario.total_broadcasts)

let test_summary_consistency () =
  List.iter
    (fun faults ->
      let s = Scenario.summarize (Scenario.run { base with Scenario.faults; seed = 7 }) in
      Alcotest.(check bool) "correct <= delivered" true
        (s.Scenario.delivered_correct <= s.Scenario.delivered_any);
      Alcotest.(check bool) "delivered <= honest" true
        (s.Scenario.delivered_any <= s.Scenario.honest_nodes);
      Alcotest.(check bool) "rates in [0,1]" true
        (s.Scenario.completion_rate >= 0.0 && s.Scenario.completion_rate <= 1.0
        && s.Scenario.correct_rate >= 0.0 && s.Scenario.correct_rate <= 1.0
        && s.Scenario.correct_of_delivered >= 0.0 && s.Scenario.correct_of_delivered <= 1.0))
    [
      Scenario.No_faults;
      Scenario.Crash 0.3;
      Scenario.Lying 0.2;
      Scenario.Jamming { fraction = 0.1; budget = 10; probability = 0.2 };
    ]

let test_fault_assignment_counts () =
  let result = Scenario.run { base with Scenario.faults = Scenario.Lying 0.25; seed = 3 } in
  let honest = Array.to_list result.Scenario.honest in
  let byzantine = List.length (List.filter not honest) in
  Alcotest.(check int) "25% of 80 nodes lie" 20 byzantine;
  Alcotest.(check bool) "source stays honest" true result.Scenario.honest.(result.Scenario.source)

let test_fake_message () =
  let fake = Scenario.fake_message (Bitvec.of_string "1010") in
  Alcotest.(check string) "complement" "0101" (Bitvec.to_string fake)

let test_grid_deployment_dimensions () =
  let spec =
    { base with Scenario.deployment = Scenario.Grid; radio = Scenario.Disk_linf; map_w = 6.0;
      map_h = 6.0 }
  in
  let result = Scenario.run spec in
  Alcotest.(check int) "7x7 grid" 49 (Topology.size result.Scenario.topology)

let test_source_is_central () =
  let result = Scenario.run base in
  let pos = Topology.position result.Scenario.topology result.Scenario.source in
  Alcotest.(check bool) "source near centre" true
    (Point.dist_l2 pos (Point.make 4.0 4.0) < 2.0)

let test_crash_excluded_from_metrics () =
  let s = Scenario.summarize (Scenario.run { base with Scenario.faults = Scenario.Crash 0.25 }) in
  Alcotest.(check int) "crashed removed from honest count" (80 - 20 - 1) s.Scenario.honest_nodes

(* --- Ascii map ---------------------------------------------------------- *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec scan i = i + nn <= nh && (String.sub haystack i nn = needle || scan (i + 1)) in
  scan 0

(* The last line of a rendering is the legend; the grid is what precedes. *)
let grid_of rendered =
  match List.rev (List.filter (fun l -> l <> "") (String.split_on_char '\n' rendered)) with
  | _legend :: rows -> String.concat "\n" (List.rev rows)
  | [] -> ""

let test_ascii_map_clean_run () =
  let grid = grid_of (Ascii_map.render (Scenario.run base)) in
  Alcotest.(check bool) "marks the source" true (contains grid "S");
  Alcotest.(check bool) "marks correct deliveries" true (contains grid "#");
  Alcotest.(check bool) "no fakes in a clean run" false (contains grid "x");
  Alcotest.(check bool) "no liars in a clean run" false (contains grid "L");
  Alcotest.(check int) "one row per map unit" 8
    (List.length (List.filter (fun l -> l <> "") (String.split_on_char '\n' grid)))

let test_ascii_map_marks_liars () =
  let grid =
    grid_of
      (Ascii_map.render
         (Scenario.run { base with Scenario.faults = Scenario.Lying 0.2; seed = 3 }))
  in
  Alcotest.(check bool) "liars visible" true (contains grid "L")

let test_ascii_map_marks_jammers () =
  let grid =
    grid_of
      (Ascii_map.render
         (Scenario.run
            { base with
              Scenario.faults = Scenario.Jamming { fraction = 0.2; budget = 5; probability = 0.2 };
              seed = 3 }))
  in
  Alcotest.(check bool) "jammers visible" true (contains grid "J")

(* --- Experiment repetition helper ------------------------------------- *)

let test_experiment_seeds () =
  let config = { Experiment.repetitions = 5; base_seed = 10 } in
  let seeds = Experiment.seeds config in
  Alcotest.(check int) "count" 5 (List.length seeds);
  Alcotest.(check int) "distinct" 5 (List.length (List.sort_uniq Int.compare seeds))

let test_experiment_aggregate () =
  let mk rate rounds =
    {
      Scenario.honest_nodes = 100;
      delivered_any = int_of_float (rate *. 100.0);
      delivered_correct = int_of_float (rate *. 100.0);
      completion_rate = rate;
      correct_of_delivered = 1.0;
      correct_rate = rate;
      rounds;
      active_rounds = rounds;
      hit_cap = false;
      total_broadcasts = 1000;
      mean_completion_round = 10.0;
    }
  in
  let agg = Experiment.aggregate [ mk 0.8 100; mk 1.0 200 ] in
  Alcotest.(check (float 1e-9)) "mean completion" 0.9 agg.Experiment.completion_rate;
  Alcotest.(check (float 1e-9)) "mean rounds" 150.0 agg.Experiment.rounds;
  Alcotest.(check int) "runs" 2 agg.Experiment.runs

(* A grid cell runs the spec once per seed, reports each run's engine
   work, and carries the aggregate on its row. *)
let test_experiment_measure_runs () =
  let config = { Experiment.repetitions = 2; base_seed = 42 } in
  match Experiment.grid1 config base (fun _ -> Experiment.row [ "x" ]) with
  | Experiment.Cell { trials; render } ->
    let results, works = List.split (List.map (fun trial -> trial ()) trials) in
    Alcotest.(check int) "one trial per seed" 2 (List.length trials);
    List.iter
      (fun (w : Experiment.work) ->
        Alcotest.(check bool) "work reported" true
          (w.Experiment.rounds > 0 && w.Experiment.active_rounds <= w.Experiment.rounds))
      works;
    (match (render results).Experiment.aggregates with
    | [ agg ] ->
      Alcotest.(check int) "two runs" 2 agg.Experiment.runs;
      Alcotest.(check bool) "produced rounds" true (agg.Experiment.rounds > 0.0)
    | aggs -> Alcotest.failf "expected one aggregate, got %d" (List.length aggs))

let () =
  Alcotest.run "scenario"
    [
      ( "assembly",
        [
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_seed_changes_runs;
          Alcotest.test_case "summary consistency" `Quick test_summary_consistency;
          Alcotest.test_case "fault assignment" `Quick test_fault_assignment_counts;
          Alcotest.test_case "fake message" `Quick test_fake_message;
          Alcotest.test_case "grid dimensions" `Quick test_grid_deployment_dimensions;
          Alcotest.test_case "source central" `Quick test_source_is_central;
          Alcotest.test_case "crash metrics" `Quick test_crash_excluded_from_metrics;
        ] );
      ( "ascii-map",
        [
          Alcotest.test_case "clean run" `Quick test_ascii_map_clean_run;
          Alcotest.test_case "liars visible" `Quick test_ascii_map_marks_liars;
          Alcotest.test_case "jammers visible" `Quick test_ascii_map_marks_jammers;
        ] );
      ( "experiment",
        [
          Alcotest.test_case "seeds" `Quick test_experiment_seeds;
          Alcotest.test_case "aggregate" `Quick test_experiment_aggregate;
          Alcotest.test_case "measure" `Quick test_experiment_measure_runs;
        ] );
    ]
