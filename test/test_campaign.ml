(* Tests for the scale campaign driver: plan/dry-run agreement with real
   execution, archived results, config validation, and the bench-compare
   peak-heap ceiling gate. *)

(* A campaign small enough to execute in well under a second per run but
   still covering both graph classes and a warm phase. *)
let tiny config =
  {
    config with
    Campaign.label = "tiny";
    node_counts = [ 60 ];
    densities = [ 8.0 ];
    adversaries = [ "honest" ];
    classes = Campaign.all_classes;
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
          "archived schema" (Some "securebit-campaign/1")
          (Option.bind (Json.member "schema" json) Json.to_string_opt))
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

let test_validation () =
  let bad message config =
    match Campaign.run config with
    | Ok _ -> Alcotest.fail ("accepted " ^ message)
    | Error _ -> ()
  in
  bad "unknown adversary" { (tiny Campaign.default) with Campaign.adversaries = [ "gremlin" ] };
  bad "empty node counts" { (tiny Campaign.default) with Campaign.node_counts = [] };
  bad "negative warm" { (tiny Campaign.default) with Campaign.warm = -1 }

let test_mem_ceiling_fails () =
  (* One word is below any real peak, so the gate must trip. *)
  let config = { (tiny Campaign.default) with Campaign.mem_ceiling_words = Some 1 } in
  let _, failed = run_exn config in
  Alcotest.(check bool) "one-word ceiling trips" true failed

(* --- bench compare: peak-heap ceilings ---------------------------------- *)

let parse s = match Json.of_string s with Ok j -> j | Error m -> Alcotest.fail m

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = affix || at (i + 1)) in
  at 0

let baseline_with_ceiling =
  {|{ "schema": "securebit-bench/1",
      "experiments": [
        { "id": "e1", "wall_seconds": 1.0, "max_heap_words": 1000 },
        { "id": "e2", "wall_seconds": 1.0 } ] }|}

let current_with_profile peak =
  Printf.sprintf
    {|{ "schema": "securebit-bench/1",
        "experiments": [
          { "id": "e1", "wall_seconds": 1.0, "profile": { "top_heap_words": %d } },
          { "id": "e2", "wall_seconds": 1.0 } ] }|}
    peak

let test_heap_parsing () =
  Alcotest.(check (list (pair string int)))
    "ceilings parsed" [ ("e1", 1000) ]
    (Bench.heap_ceilings_of_results (parse baseline_with_ceiling));
  Alcotest.(check (list (pair string int)))
    "peaks parsed" [ ("e1", 2000) ]
    (Bench.heap_peaks_of_results (parse (current_with_profile 2000)))

let with_temp_files base current f =
  let write contents =
    let path = Filename.temp_file "bench" ".json" in
    Out_channel.with_open_text path (fun oc -> output_string oc contents);
    path
  in
  let base_path = write base and current_path = write current in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove base_path;
      Sys.remove current_path)
    (fun () -> f base_path current_path)

let test_memory_gate_trips () =
  with_temp_files baseline_with_ceiling (current_with_profile 2000) (fun base current ->
      match Bench.compare_files ~base ~current () with
      | Error message -> Alcotest.fail message
      | Ok (report, failed) ->
        Alcotest.(check bool) "peak over ceiling fails" true failed;
        Alcotest.(check bool) "report names the breach" true
          ((contains ~affix:"OVER CEILING" report)))

let test_memory_gate_passes () =
  with_temp_files baseline_with_ceiling (current_with_profile 500) (fun base current ->
      match Bench.compare_files ~base ~current () with
      | Error message -> Alcotest.fail message
      | Ok (_, failed) -> Alcotest.(check bool) "peak under ceiling passes" false failed)

let test_memory_gate_unprofiled_warns () =
  (* A ceiling the current run did not measure is a warning, not a
     failure — unprofiled comparisons still gate wall time alone. *)
  with_temp_files baseline_with_ceiling
    {|{ "schema": "securebit-bench/1",
        "experiments": [
          { "id": "e1", "wall_seconds": 1.0 },
          { "id": "e2", "wall_seconds": 1.0 } ] }|}
    (fun base current ->
      match Bench.compare_files ~base ~current () with
      | Error message -> Alcotest.fail message
      | Ok (report, failed) ->
        Alcotest.(check bool) "unmeasured ceiling does not fail" false failed;
        Alcotest.(check bool) "report warns" true
          ((contains ~affix:"not checked" report)))

let test_memory_check_semantics () =
  let checks =
    Bench.memory_checks
      ~ceilings:[ ("a", 100); ("b", 100); ("c", 100) ]
      ~peaks:[ ("a", 100); ("b", 101) ]
  in
  Alcotest.(check (list bool))
    "exceeded iff peak > ceiling" [ false; true; false ]
    (List.map Bench.memory_exceeded checks)

let () =
  Alcotest.run "campaign"
    [
      ( "campaign",
        [
          Alcotest.test_case "dry-run preview = execution" `Quick test_dry_run_matches_execution;
          Alcotest.test_case "plan shape and run ids" `Quick test_plan_shape;
          Alcotest.test_case "archived results + manifest" `Quick test_archive;
          Alcotest.test_case "config validation" `Quick test_validation;
          Alcotest.test_case "memory ceiling trips" `Quick test_mem_ceiling_fails;
        ] );
      ( "bench memory gate",
        [
          Alcotest.test_case "heap fields parsed" `Quick test_heap_parsing;
          Alcotest.test_case "over ceiling fails compare" `Quick test_memory_gate_trips;
          Alcotest.test_case "under ceiling passes" `Quick test_memory_gate_passes;
          Alcotest.test_case "unprofiled ceiling warns" `Quick test_memory_gate_unprofiled_warns;
          Alcotest.test_case "memory_checks pairing" `Quick test_memory_check_semantics;
        ] );
    ]
