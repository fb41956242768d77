(* Tests for the domain-parallel job runner: the worker pool, the
   experiment registry, bench compare's gates, and the byte-identity of
   parallel vs sequential execution of registry jobs. *)

open Bench_files

(* --- Pool ---------------------------------------------------------------- *)

let map ~jobs f xs = fst (Pool.map_array_stats ~jobs f xs)

(* The pool is a drop-in parallel map: same results, same order, for any
   worker count. *)
let prop_pool_matches_map =
  QCheck.Test.make ~name:"Pool.map_array_stats = Array.map" ~count:60
    QCheck.(pair (int_range 1 6) (array_of_size Gen.(int_bound 50) small_int))
    (fun (jobs, xs) ->
      let f x = (x * x) - (3 * x) + 7 in
      map ~jobs f xs = Array.map f xs)

let test_pool_empty () =
  Alcotest.(check (array int)) "empty input" [||] (map ~jobs:4 (fun x -> x) [||])

let test_pool_order () =
  let xs = Array.init 200 (fun i -> i) in
  Alcotest.(check (array int)) "order preserved" (Array.map succ xs) (map ~jobs:4 succ xs)

exception Boom of int

let test_pool_exception () =
  let f x = if x = 137 then raise (Boom x) else x in
  let xs = Array.init 300 (fun i -> i) in
  Alcotest.check_raises "worker exception re-raised" (Boom 137) (fun () ->
      ignore (map ~jobs:4 f xs))

let test_pool_worker_stats () =
  let results, stats = Pool.map_array_stats ~jobs:3 (fun i -> i * i) (Array.init 30 (fun i -> i)) in
  Alcotest.(check (array int)) "results unchanged" (Array.init 30 (fun i -> i * i)) results;
  Alcotest.(check int) "one stat per domain" 3 (List.length stats);
  Alcotest.(check (list int)) "domains numbered from the caller" [ 0; 1; 2 ]
    (List.map (fun s -> s.Pool.domain_index) stats);
  Alcotest.(check int) "every task accounted for" 30
    (List.fold_left (fun acc s -> acc + s.Pool.tasks_run) 0 stats);
  (* Sequential execution reports a single coordinator entry. *)
  match Pool.map_array_stats ~jobs:1 (fun i -> i) (Array.init 5 (fun i -> i)) with
  | _, [ s ] ->
    Alcotest.(check int) "coordinator domain" 0 s.Pool.domain_index;
    Alcotest.(check int) "all tasks on it" 5 s.Pool.tasks_run
  | _, stats -> Alcotest.failf "expected one sequential stat, got %d" (List.length stats)

(* --- Registry ------------------------------------------------------------ *)

let expected_ids =
  [
    "e1"; "e2"; "e3"; "e4"; "e5"; "e6"; "e7"; "e8a"; "e8b"; "e8c"; "a1"; "a2"; "a3";
    "a4"; "a5"; "bounds"; "mobile"; "g1"; "s1";
  ]

let test_registry_complete () =
  Alcotest.(check (list string)) "every experiment registered" expected_ids Registry.ids

let test_registry_unique () =
  let sorted = List.sort_uniq String.compare Registry.ids in
  Alcotest.(check int) "ids are unique" (List.length Registry.ids) (List.length sorted)

let test_registry_find () =
  List.iter
    (fun id ->
      match Registry.find id with
      | Some job -> Alcotest.(check string) ("find " ^ id) id job.Experiment.id
      | None -> Alcotest.failf "Registry.find %s = None" id)
    expected_ids;
  (match Registry.find "E8A" with
  | Some job -> Alcotest.(check string) "case-insensitive" "e8a" job.Experiment.id
  | None -> Alcotest.fail "Registry.find E8A = None");
  Alcotest.(check bool) "unknown id" true (Registry.find "e99" = None)

let test_selection () =
  (match Bench.selection [ "a3"; "e1" ] with
  | Ok jobs ->
    Alcotest.(check (list string)) "canonical order kept" [ "e1"; "a3" ]
      (List.map (fun job -> job.Experiment.id) jobs)
  | Error m -> Alcotest.fail m);
  match Bench.selection [ "e1"; "nope" ] with
  | Ok _ -> Alcotest.fail "unknown id accepted"
  | Error message ->
    Alcotest.(check bool) "names the unknown id" true (contains ~needle:"nope" message)

(* --- bench compare (perf-regression harness) ------------------------------ *)

(* The acceptance bar for the harness: an injected >20% slowdown must come
   back flagged and named (the CLI exits 1 on any [Over] row). *)
let test_compare_detects_injected_regression () =
  let checks =
    compare_entries
      [ experiment "e1" 10.0; experiment "e2" 10.0 ]
      [ experiment "e1" 9.0; experiment "e2" 13.0 ]
  in
  Alcotest.(check (list string)) "e2 flagged" [ "e2 " ^ wall ] (rows Bench.Over checks);
  Alcotest.(check bool) "report names the row" true
    (contains ~needle:("1 limit(s) exceeded: e2 " ^ wall) (Bench.render checks))

let test_compare_clean_run_passes () =
  (* 15% slower is inside the 20% tolerance. *)
  let checks =
    compare_entries
      [ experiment "e1" 10.0; experiment "e2" 4.0 ]
      [ experiment "e1" 11.5; experiment "e2" 2.0 ]
  in
  Alcotest.(check (list string)) "nothing flagged" [] (rows Bench.Over checks);
  Alcotest.(check bool) "report says clean" true
    (contains ~needle:"no limits exceeded" (Bench.render checks))

let test_compare_semantics () =
  let flagged base current =
    rows Bench.Over (compare_entries [ experiment "x" base ] [ experiment "x" current ]) <> []
  in
  (* Exactly at the threshold is not a regression; just beyond is. *)
  Alcotest.(check bool) "20% exactly passes" false (flagged 10.0 12.0);
  Alcotest.(check bool) "beyond 20% fails" true (flagged 10.0 12.01);
  (* Runs under the noise floor on both sides are never flagged, however
     large the ratio; one side above it is enough to time. *)
  Alcotest.(check bool) "below noise floor" false (flagged 0.01 0.04);
  Alcotest.(check (list string))
    "reported as below the floor" [ "x " ^ wall ]
    (rows Bench.Below_floor (compare_entries [ experiment "x" 0.01 ] [ experiment "x" 0.04 ]));
  Alcotest.(check bool) "current above the floor" true (flagged 0.01 0.06)

let test_compare_pairing () =
  let checks =
    compare_entries
      [ experiment "gone" 1.0; experiment "e1" 2.0 ]
      [ experiment "e1" 1.5; experiment "fresh" 0.5 ]
  in
  Alcotest.(check (list string))
    "current order first, baseline-only appended"
    [ "e1 " ^ wall; "fresh " ^ wall; "gone " ^ wall ]
    (List.map row_name checks);
  Alcotest.(check (list string)) "fresh is new" [ "fresh " ^ wall ] (rows Bench.New checks);
  Alcotest.(check (list string)) "gone was not run" [ "gone " ^ wall ] (rows Bench.Not_run checks);
  Alcotest.(check (list string)) "one-sided rows never fail" [] (rows Bench.Over checks)

let test_compare_rejects_bad_files () =
  with_file (results_file [ experiment "e1" 1.0 ]) (fun good ->
      (match Bench.compare ~base:"/nonexistent/results.json" ~current:good with
      | Ok _ -> Alcotest.fail "accepted a missing file"
      | Error message ->
        Alcotest.(check bool) "names the baseline" true (contains ~needle:"baseline" message));
      with_file "{\"not\": \"bench\"}" (fun bad ->
          match Bench.compare ~base:good ~current:bad with
          | Ok _ -> Alcotest.fail "accepted a non-results file"
          | Error message ->
            Alcotest.(check bool) "diagnostic mentions experiments" true
              (contains ~needle:"experiments" message)))

(* The dynamic half of the allocation gate: a words/active-round rate above
   1.2x the baseline's own rate fails the compare; at or under it passes,
   and an unprofiled current run warns without failing. *)
let test_compare_alloc_gate () =
  let base = [ experiment "e1" 10.0 ~rate:1000.0 ] in
  let with_rate r = compare_entries base [ experiment "e1" 10.0 ?rate:r ] in
  let over = with_rate (Some 1500.0) in
  Alcotest.(check (list string)) "over the limit" [ "e1 " ^ rate ] (rows Bench.Over over);
  Alcotest.(check bool) "report says OVER LIMIT" true
    (contains ~needle:"OVER LIMIT" (Bench.render over));
  Alcotest.(check (list string)) "at the limit" [] (rows Bench.Over (with_rate (Some 1200.0)));
  Alcotest.(check (list string))
    "under the limit" [ "e1 " ^ wall; "e1 " ^ rate ]
    (rows Bench.Within (with_rate (Some 900.0)));
  let unprofiled = with_rate None in
  Alcotest.(check (list string)) "unmeasured rate is not a failure" [] (rows Bench.Over unprofiled);
  Alcotest.(check (list string))
    "reported as not profiled" [ "e1 " ^ rate ]
    (rows Bench.Not_profiled unprofiled);
  Alcotest.(check bool) "report warns" true
    (contains ~needle:"warning: 1 limit(s) not checked" (Bench.render unprofiled))

(* Each limit follows from the baseline's own value by a fixed rule; pinned
   with e1's numbers from BENCH_baseline.json. *)
let test_alloc_checks_semantics () =
  let limit field base =
    (List.find (fun g -> String.concat "." g.Bench.field = field) Bench.gates).Bench.limit base
  in
  Alcotest.(check (option (float 0.0))) "heap: 1.5x, next 100 000 words" (Some 10_500_000.0)
    (limit heap 6_968_784.0);
  Alcotest.(check (option (float 0.0))) "rate: 1.2x, rounded up" (Some 472.0)
    (limit rate 393.3160159136858);
  Alcotest.(check (option (float 0.0))) "a rate of 0 gets no gate" None (limit rate 0.0);
  Alcotest.(check (option (float 1e-9))) "wall: 1.2x" (Some 12.0) (limit wall 10.0);
  Alcotest.(check (list string))
    "no rate row for a table that never transmits" [ "bounds " ^ wall ]
    (List.map row_name
       (compare_entries
          [ experiment "bounds" 1.0 ~rate:0.0 ]
          [ experiment "bounds" 1.0 ~rate:5.0 ]))

(* An experiment the current file lacks was not run: neither a warning
   nor a failure, even when every experiment that did run was profiled
   (the @alloc cell compares one profiled experiment against the whole
   baseline). *)
let test_compare_not_run () =
  let checks =
    compare_entries
      [
        experiment "e1" 1.0 ~heap:1_000_000 ~rate:100.0;
        experiment "e2" 1.0 ~heap:1_000_000 ~rate:100.0;
      ]
      [ experiment "e2" 1.0 ~heap:1_000_000 ~rate:100.0 ]
  in
  Alcotest.(check (list string))
    "e1's rows read not run" [ "e1 " ^ wall; "e1 " ^ heap; "e1 " ^ rate ]
    (rows Bench.Not_run checks);
  Alcotest.(check (list string)) "nothing unprofiled" [] (rows Bench.Not_profiled checks);
  Alcotest.(check bool) "no warning" false (contains ~needle:"warning" (Bench.render checks))

(* --- Runner byte-identity ------------------------------------------------- *)

(* The acceptance bar for the parallel runner: the rendered table, the fits,
   the notes and the stable JSON of `--jobs 4` are byte-identical to
   `--jobs 1`.  Sampled on the cheap registry jobs: an analytic table, a
   theory sweep, a small simulation grid, a grid that reads its hop
   diameter at render time (e8b) and single-trial rows (a4, mobile).
   This is the dynamic check of the `--jobs N` guarantee: a trial that
   reads or writes state another trial also touches makes the e8a rows
   differ.  Source_lint's global-mutable rule is the static one. *)
let test_parallel_identity () =
  List.iter
    (fun id ->
      let job =
        match Registry.find id with
        | Some job -> job
        | None -> Alcotest.failf "missing job %s" id
      in
      let sequential = Runner.run_job ~jobs:1 ~scale:Experiment.Quick job in
      let parallel = Runner.run_job ~jobs:4 ~scale:Experiment.Quick job in
      Alcotest.(check string)
        (id ^ ": rendered output identical")
        (Runner.render sequential) (Runner.render parallel);
      Alcotest.(check string)
        (id ^ ": stable JSON identical")
        (Json.to_string (Runner.stable_json sequential))
        (Json.to_string (Runner.stable_json parallel)))
    [ "bounds"; "e8a"; "a3"; "e8b"; "a4"; "mobile" ]

(* Every row is trials the runner runs and profiles: only the analytic
   bounds table has none.  The cells are built, not run. *)
let test_every_row_has_trials () =
  List.iter
    (fun (job : Experiment.job) ->
      List.iteri
        (fun k (Experiment.Cell { trials; _ }) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s row %d: has trials unless it is bounds" job.Experiment.id k)
            (job.Experiment.id <> "bounds")
            (trials <> []))
        (job.Experiment.cells Experiment.Quick))
    Registry.all

(* --- Profiling ------------------------------------------------------------ *)

let test_profile_counters () =
  let job =
    match Registry.find "e8a" with
    | Some job -> job
    | None -> Alcotest.fail "missing job e8a"
  in
  let plain = Runner.run_job ~scale:Experiment.Quick job in
  Alcotest.(check bool) "no profile unless requested" true (plain.Runner.profile = None);
  let profiled = Runner.run_job ~profile:true ~scale:Experiment.Quick job in
  (match profiled.Runner.profile with
  | None -> Alcotest.fail "profile requested but absent"
  | Some p ->
    Alcotest.(check bool) "simulated some rounds" true (p.Runner.rounds_simulated > 0);
    Alcotest.(check bool) "rounds/s positive" true (p.Runner.rounds_per_second > 0.0);
    Alcotest.(check bool) "allocation observed" true (p.Runner.minor_words > 0.0);
    Alcotest.(check bool) "active rounds counted" true (p.Runner.active_rounds > 0);
    Alcotest.(check bool) "active rounds within simulated rounds" true
      (p.Runner.active_rounds <= p.Runner.rounds_simulated);
    Alcotest.(check bool) "words/active-round computed" true
      (p.Runner.words_per_active_round > 0.0);
    match p.Runner.workers with
    | [ w ] ->
      Alcotest.(check int) "single coordinator worker at jobs=1" 0 w.Pool.domain_index;
      Alcotest.(check bool) "worker ran the trials" true (w.Pool.tasks_run > 0)
    | ws -> Alcotest.failf "expected one worker stat at jobs=1, got %d" (List.length ws));
  (* A trial's declared work is what the profile sums. *)
  let declared =
    Experiment.job ~id:"declared" ~title:"declared" ~columns:[ "ok" ] (fun _ ->
        List.map
          (fun rounds ->
            Experiment.single
              (fun () -> ((), { Experiment.rounds; active_rounds = rounds / 2 }))
              (fun () -> Experiment.row [ "ok" ]))
          [ 70; 30 ])
  in
  (match (Runner.run_job ~jobs:2 ~profile:true ~scale:Experiment.Quick declared).Runner.profile with
  | None -> Alcotest.fail "profile requested but absent"
  | Some p ->
    Alcotest.(check int) "declared rounds summed" 100 p.Runner.rounds_simulated;
    Alcotest.(check int) "declared active rounds summed" 50 p.Runner.active_rounds);
  (* The profile rides in the JSON but never perturbs the stable part that
     tables and comparisons are built from. *)
  Alcotest.(check string) "stable JSON unchanged by profiling"
    (Json.to_string (Runner.stable_json plain))
    (Json.to_string (Runner.stable_json profiled));
  let json = Json.to_string (Runner.json_of_outcome profiled) in
  Alcotest.(check bool) "profile embedded in the results JSON" true
    (contains ~needle:"rounds_per_second" json);
  Alcotest.(check bool) "per-worker stats embedded in the results JSON" true
    (contains ~needle:"workers" json);
  (* A profiled results file is valid compare input, and its profile fields
     are gated: against itself, every row passes. *)
  let results = Runner.results_json ~scale:Experiment.Quick ~jobs:1 [ profiled ] in
  with_file (Json.to_string_pretty results) (fun path ->
      match Bench.compare ~base:path ~current:path with
      | Error message -> Alcotest.failf "profiled results rejected by compare: %s" message
      | Ok checks ->
        Alcotest.(check (list string))
          "every gate checked" [ "e8a " ^ wall; "e8a " ^ heap; "e8a " ^ rate ]
          (List.map row_name checks);
        Alcotest.(check (list string)) "nothing flagged" [] (rows Bench.Over checks))

(* The profile counts minor words exactly: a one-trial job that allocates
   50 000 refs (100 000 words) into a freshly emptied minor heap reports
   that count, where a counter that moves only at minor collections reads
   0 (or 262 144, one whole heap).  The slack covers the runner's own
   bookkeeping around the trial, 167 words when measured. *)
let test_profile_minor_words_exact () =
  let allocated = 100_000.0 and slack = 1_000.0 in
  let job =
    Experiment.job ~id:"words" ~title:"words" ~columns:[ "ok" ] (fun _ ->
        [
          Experiment.single
            (fun () ->
              for _ = 1 to 50_000 do
                ignore (Sys.opaque_identity (ref 0))
              done;
              ((), Experiment.no_work))
            (fun () -> Experiment.row [ "ok" ]);
        ])
  in
  Gc.minor ();
  match (Runner.run_job ~profile:true ~scale:Experiment.Quick job).Runner.profile with
  | None -> Alcotest.fail "profile requested but absent"
  | Some p ->
    let near what words =
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.0f minor words for the %.0f allocated" what words allocated)
        true
        (words >= allocated && words <= allocated +. slack)
    in
    near "the job" p.Runner.minor_words;
    List.iter
      (fun (w : Pool.worker_stat) -> near "its one worker" w.Pool.minor_words)
      p.Runner.workers

let qtests = [ prop_pool_matches_map ]

let () =
  Alcotest.run "run"
    [
      ( "pool",
        [
          Alcotest.test_case "empty" `Quick test_pool_empty;
          Alcotest.test_case "order" `Quick test_pool_order;
          Alcotest.test_case "exception propagation" `Quick test_pool_exception;
          Alcotest.test_case "per-worker stats" `Quick test_pool_worker_stats;
        ] );
      ( "registry",
        [
          Alcotest.test_case "completeness" `Quick test_registry_complete;
          Alcotest.test_case "unique ids" `Quick test_registry_unique;
          Alcotest.test_case "find" `Quick test_registry_find;
          Alcotest.test_case "bench selection" `Quick test_selection;
        ] );
      ( "bench compare",
        [
          Alcotest.test_case "injected regression detected" `Quick
            test_compare_detects_injected_regression;
          Alcotest.test_case "clean run passes" `Quick test_compare_clean_run_passes;
          Alcotest.test_case "threshold and noise floor" `Quick test_compare_semantics;
          Alcotest.test_case "pairing" `Quick test_compare_pairing;
          Alcotest.test_case "bad files rejected" `Quick test_compare_rejects_bad_files;
          Alcotest.test_case "injected words/active-round regression detected" `Quick
            test_compare_alloc_gate;
          Alcotest.test_case "allocation-check semantics" `Quick test_alloc_checks_semantics;
          Alcotest.test_case "experiment not run is no warning" `Quick test_compare_not_run;
        ] );
      ( "runner",
        [
          Alcotest.test_case "jobs=4 byte-identical to jobs=1" `Quick test_parallel_identity;
          Alcotest.test_case "every row has trials" `Quick test_every_row_has_trials;
          Alcotest.test_case "profile counters" `Quick test_profile_counters;
          Alcotest.test_case "profile minor words exact" `Quick test_profile_minor_words_exact;
        ] );
      ("properties", List.map (fun t -> QCheck_alcotest.to_alcotest ~long:false t) qtests);
    ]
