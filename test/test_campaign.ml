(* Tests for the scale campaign driver (plan/dry-run agreement with real
   execution, archived results, config validation, the peak-heap ceiling)
   and bench compare's peak-heap gate. *)

(* A campaign small enough to execute in well under a second per run but
   still covering both graph classes and a warm phase. *)
let tiny config =
  {
    config with
    Campaign.label = "tiny";
    node_counts = [ 60 ];
    densities = [ 8.0 ];
    adversaries = [ "honest" ];
    classes = Scale_sweep.all_classes;
    warm = 1;
    message = "1";
  }

let run_exn config =
  match Campaign.run config with
  | Ok (executed, failed) -> (executed, failed)
  | Error message -> Alcotest.fail message

(* The --dry-run preview must list exactly the runs a real invocation
   executes, in order. *)
let test_dry_run_matches_execution () =
  let config = tiny Campaign.default in
  let executed, failed = run_exn config in
  Alcotest.(check bool) "no ceiling configured, nothing fails" false failed;
  Alcotest.(check (list string))
    "executed run ids = planned run ids"
    (List.map (fun p -> p.Campaign.run_id) (Campaign.plan config))
    (List.map (fun e -> e.Campaign.planned.Campaign.run_id) executed);
  let dry, dry_failed = run_exn { config with Campaign.dry_run = true } in
  Alcotest.(check bool) "dry run executes nothing" true (dry = [] && not dry_failed)

let test_plan_shape () =
  let config =
    { (tiny Campaign.default) with
      Campaign.node_counts = [ 10; 20 ];
      densities = [ 4.0 ];
      adversaries = [ "honest"; "lying" ];
      warm = 2;
    }
  in
  let plans = Campaign.plan config in
  (* 2 classes × 2 node counts × 1 density × 2 adversaries × (1 cold + 2 warm) *)
  Alcotest.(check int) "plan size" 24 (List.length plans);
  Alcotest.(check string) "run id format" "n10-d4-honest-uniform-cold"
    (List.hd plans).Campaign.run_id;
  let ids = List.map (fun p -> p.Campaign.run_id) plans in
  Alcotest.(check int) "run ids unique" (List.length ids)
    (List.length (List.sort_uniq String.compare ids))

let test_archive () =
  let out_dir = Filename.temp_file "campaign" "" in
  Sys.remove out_dir;
  let config = { (tiny Campaign.default) with Campaign.out_dir = Some out_dir } in
  let executed, _ = run_exn config in
  let dir = Filename.concat out_dir config.Campaign.label in
  List.iter
    (fun e ->
      let path = Filename.concat dir (e.Campaign.planned.Campaign.run_id ^ ".json") in
      Alcotest.(check bool) (path ^ " archived") true (Sys.file_exists path);
      match Json.of_string (In_channel.with_open_text path In_channel.input_all) with
      | Error message -> Alcotest.fail message
      | Ok json ->
        Alcotest.(check (option string))
          "archived schema" (Some "securebit-campaign/2")
          (Option.bind (Json.member "schema" json) Json.to_string_opt);
        Alcotest.(check (option (float 0.0)))
          "archived process peak"
          (Some (float_of_int e.Campaign.process_peak_heap_words))
          (Option.bind (Json.member "process_peak_heap_words" json) Json.to_float_opt))
    executed;
  match Json.of_string
          (In_channel.with_open_text (Filename.concat dir "manifest.json") In_channel.input_all)
  with
  | Error message -> Alcotest.fail message
  | Ok json ->
    let runs =
      match Option.bind (Json.member "runs" json) Json.to_list_opt with
      | Some entries -> List.filter_map Json.to_string_opt entries
      | None -> []
    in
    Alcotest.(check (list string))
      "manifest lists every run"
      (List.map (fun e -> e.Campaign.planned.Campaign.run_id) executed)
      runs

(* Cold runs time their topology build, within their wall time; warm
   runs reuse the cold topology and read 0.  The archived record carries
   the same number. *)
let test_topology_seconds () =
  let out_dir = Filename.temp_file "campaign" "" in
  Sys.remove out_dir;
  let config = { (tiny Campaign.default) with Campaign.out_dir = Some out_dir } in
  let executed, _ = run_exn config in
  let dir = Filename.concat out_dir config.Campaign.label in
  List.iter
    (fun e ->
      let id = e.Campaign.planned.Campaign.run_id in
      (match e.Campaign.planned.Campaign.phase with
      | Campaign.Cold ->
        Alcotest.(check bool)
          (id ^ ": 0 <= topology <= wall") true
          (e.Campaign.topology_seconds >= 0.0
          && e.Campaign.topology_seconds <= e.Campaign.wall_seconds)
      | Campaign.Warm _ ->
        Alcotest.(check (float 0.0)) (id ^ ": warm builds nothing") 0.0 e.Campaign.topology_seconds);
      match
        Json.of_string (In_channel.with_open_text (Filename.concat dir (id ^ ".json")) In_channel.input_all)
      with
      | Error message -> Alcotest.fail message
      | Ok json ->
        Alcotest.(check (option (float 0.0)))
          (id ^ ": archived topology_seconds")
          (Some e.Campaign.topology_seconds)
          (Option.bind (Json.member "topology_seconds" json) Json.to_float_opt))
    executed;
  Alcotest.(check bool) "the table has the column" true
    (let table = Campaign.render executed in
     let column = "topo (s)" in
     let rec scan i =
       i + String.length column <= String.length table
       && (String.sub table i (String.length column) = column || scan (i + 1))
     in
     scan 0)

let test_validation () =
  let bad message config =
    match Campaign.run config with
    | Ok _ -> Alcotest.fail ("accepted " ^ message)
    | Error _ -> ()
  in
  bad "unknown adversary" { (tiny Campaign.default) with Campaign.adversaries = [ "gremlin" ] };
  bad "empty node counts" { (tiny Campaign.default) with Campaign.node_counts = [] };
  bad "negative warm" { (tiny Campaign.default) with Campaign.warm = -1 };
  bad "zero round cap" { (tiny Campaign.default) with Campaign.cap = 0 };
  bad "negative round cap" { (tiny Campaign.default) with Campaign.cap = -5 }

(* The heap figure is the process's major-heap peak so far, not the run's
   own: a small cell run after a big one reads at least the big one's
   peak, and no reading exceeds the process's peak afterwards. *)
let test_process_peak_reading () =
  let config =
    {
      (tiny Campaign.default) with
      Campaign.node_counts = [ 3000; 60 ];
      classes = [ Scale_sweep.Uniform_radio ];
      warm = 0;
    }
  in
  match run_exn config with
  | [ big; small ], _ ->
    let peak e = e.Campaign.process_peak_heap_words in
    Alcotest.(check bool)
      (Printf.sprintf "n=60 after n=3000 reads %d >= %d words" (peak small) (peak big))
      true
      (peak small >= peak big);
    Alcotest.(check bool) "a process figure" true
      (peak small <= (Gc.quick_stat ()).Gc.top_heap_words)
  | executed, _ -> Alcotest.failf "expected two runs, got %d" (List.length executed)

let test_mem_ceiling_fails () =
  (* One word is below any real peak, so the gate must trip. *)
  let config = { (tiny Campaign.default) with Campaign.mem_ceiling_words = Some 1 } in
  let _, failed = run_exn config in
  Alcotest.(check bool) "one-word ceiling trips" true failed

(* --- bench compare: peak heap ------------------------------------------ *)

open Bench_files

let test_heap_parsing () =
  match
    compare_entries [ experiment "e1" 1.0 ~heap:6_968_784 ] [ experiment "e1" 1.0 ~heap:2000 ]
  with
  | [ _wall; c ] ->
    Alcotest.(check string) "heap row" ("e1 " ^ heap) (row_name c);
    Alcotest.(check (option (float 0.0))) "base read" (Some 6_968_784.0) c.Bench.base;
    Alcotest.(check (option (float 0.0))) "limit derived" (Some 10_500_000.0) c.Bench.limit;
    Alcotest.(check (option (float 0.0))) "current read" (Some 2000.0) c.Bench.current
  | checks -> Alcotest.failf "expected a wall and a heap row, got %d rows" (List.length checks)

let heap_base = [ experiment "e1" 1.0 ~heap:1_000_000; experiment "e2" 1.0 ]

let test_memory_gate_trips () =
  let checks =
    compare_entries heap_base [ experiment "e1" 1.0 ~heap:2_000_000; experiment "e2" 1.0 ]
  in
  Alcotest.(check (list string))
    "peak over its limit fails" [ "e1 " ^ heap ] (rows Bench.Over checks);
  Alcotest.(check bool) "report names the breach" true
    (contains ~needle:("exceeded: e1 " ^ heap) (Bench.render checks))

let test_memory_gate_passes () =
  let checks =
    compare_entries heap_base [ experiment "e1" 1.0 ~heap:500_000; experiment "e2" 1.0 ]
  in
  Alcotest.(check (list string)) "peak under its limit passes" [] (rows Bench.Over checks)

let test_memory_gate_unprofiled_warns () =
  (* A limit the current run did not measure is a warning, not a failure:
     unprofiled comparisons still gate wall time alone. *)
  let checks = compare_entries heap_base [ experiment "e1" 1.0; experiment "e2" 1.0 ] in
  Alcotest.(check (list string)) "unmeasured peak does not fail" [] (rows Bench.Over checks);
  Alcotest.(check (list string)) "reported as not profiled" [ "e1 " ^ heap ]
    (rows Bench.Not_profiled checks);
  Alcotest.(check bool) "report warns" true (contains ~needle:"not checked" (Bench.render checks))

let test_heap_limit_pairing () =
  (* Limit 1 500 000 words on each; a sits at it, b is one word over, c
     did not run. *)
  let checks =
    compare_entries
      [ experiment "a" 1.0 ~heap:1_000_000; experiment "b" 1.0 ~heap:1_000_000;
        experiment "c" 1.0 ~heap:1_000_000 ]
      [ experiment "a" 1.0 ~heap:1_500_000; experiment "b" 1.0 ~heap:1_500_001 ]
  in
  Alcotest.(check (list string)) "over iff peak > limit" [ "b " ^ heap ] (rows Bench.Over checks);
  Alcotest.(check (list string)) "at the limit passes" [ "a " ^ wall; "a " ^ heap; "b " ^ wall ]
    (rows Bench.Within checks);
  Alcotest.(check (list string))
    "c not run" [ "c " ^ wall; "c " ^ heap ] (rows Bench.Not_run checks)

let () =
  Alcotest.run "campaign"
    [
      ( "campaign",
        [
          Alcotest.test_case "dry-run preview = execution" `Quick test_dry_run_matches_execution;
          Alcotest.test_case "plan shape and run ids" `Quick test_plan_shape;
          Alcotest.test_case "archived results + manifest" `Quick test_archive;
          Alcotest.test_case "cold runs time their topology" `Quick test_topology_seconds;
          Alcotest.test_case "config validation" `Quick test_validation;
          Alcotest.test_case "memory ceiling trips" `Quick test_mem_ceiling_fails;
          Alcotest.test_case "heap figure is the process peak so far" `Quick
            test_process_peak_reading;
        ] );
      ( "bench memory gate",
        [
          Alcotest.test_case "heap fields parsed" `Quick test_heap_parsing;
          Alcotest.test_case "over ceiling fails compare" `Quick test_memory_gate_trips;
          Alcotest.test_case "under ceiling passes" `Quick test_memory_gate_passes;
          Alcotest.test_case "unprofiled ceiling warns" `Quick test_memory_gate_unprofiled_warns;
          Alcotest.test_case "heap limit pairing" `Quick test_heap_limit_pairing;
        ] );
    ]
