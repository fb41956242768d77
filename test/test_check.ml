(* Tests for the static-analysis subsystem (lib/check): the bounded model
   checker, the scenario linter, and the determinism checker. *)

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

let codes diags = List.map (fun (d : Diagnostics.diagnostic) -> d.code) diags

let file_line (d : Diagnostics.diagnostic) =
  match d.loc with
  | Line (file, line) -> (file, line)
  | Field _ -> Alcotest.fail "expected a file:line location"

(* A file of test/fixtures, which the build copies next to this
   executable: found from there, so the suite passes from any working
   directory. *)
let read_fixture name =
  let dir = Filename.concat (Filename.dirname Sys.executable_name) "fixtures" in
  In_channel.with_open_bin (Filename.concat dir name) In_channel.input_all

(* Lint in-memory files through the parse, as securebit_lint does. *)
let lint_files lint files =
  let parsed, errors = Source_lint.parse files in
  Diagnostics.sort (errors @ lint parsed)

(* --- model checker: the reference machines satisfy every invariant ------- *)

let configurations = function
  | Model_check.Pass { configurations } -> configurations
  | Model_check.Fail c ->
    Alcotest.failf "unexpected counterexample:\n%s" (Model_check.counterexample_to_string c)

let test_two_bit_reference () =
  (* Exhaustive for each budget; at budget 3 the space is exactly
     4 bit pairs x sum_{k<=3} C(6,k) = 4 * 42 jam masks. *)
  List.iter
    (fun budget -> ignore (configurations (Model_check.check_two_bit ~budget ())))
    [ 0; 1; 2 ];
  Alcotest.(check int) "4 * (1+6+15+20) configurations at budget 3" 168
    (configurations (Model_check.check_two_bit ~budget:3 ()));
  Alcotest.(check int) "single receiver also passes" 168
    (configurations (Model_check.check_two_bit ~receivers:1 ~budget:3 ()))

let test_one_hop_reference () =
  List.iter
    (fun budget -> ignore (configurations (Model_check.check_one_hop ~budget ())))
    [ 0; 1; 2; 3 ];
  ignore (configurations (Model_check.check_one_hop ~msg_len:3 ~budget:2 ()))

(* --- model checker: the seeded violation produces a counterexample ------- *)

let expect_fail = function
  | Model_check.Fail c -> c
  | Model_check.Pass { configurations } ->
    Alcotest.failf "expected a counterexample, got Pass over %d configurations" configurations

let test_skip_veto_frame_counterexample () =
  let c =
    expect_fail (Model_check.check_two_bit ~impl:Model_check.faulty_skip_veto ~budget:1 ())
  in
  (* A receiver deaf to the veto round accepts bits the sender cancelled:
     one injected broadcast in a data phase is enough. *)
  Alcotest.(check string) "violated invariant" "receiver-no-forgery" c.Model_check.invariant;
  Alcotest.(check int) "within budget" 1 c.Model_check.budget;
  Alcotest.(check bool) "adversary actually spent" true (c.Model_check.spent >= 1);
  Alcotest.(check bool) "spent within budget" true (c.Model_check.spent <= c.Model_check.budget);
  Alcotest.(check bool) "trace is non-empty" true (c.Model_check.trace <> []);
  List.iter
    (fun (e : Model_check.phase_event) ->
      Alcotest.(check bool) "phases in range" true (e.phase >= 0 && e.phase <= 5))
    c.Model_check.trace;
  let rendered = Model_check.counterexample_to_string c in
  Alcotest.(check bool) "rendering names the invariant" true
    (contains ~affix:"receiver-no-forgery" rendered);
  Alcotest.(check bool) "rendering shows the veto phase" true
    (contains ~affix:"R5 veto" rendered)

let test_skip_veto_stream_counterexample () =
  let c =
    expect_fail (Model_check.check_one_hop ~impl:Model_check.faulty_skip_veto ~budget:3 ())
  in
  Alcotest.(check bool) "trace is non-empty" true (c.Model_check.trace <> []);
  Alcotest.(check bool) "spent within budget" true
    (c.Model_check.spent >= 1 && c.Model_check.spent <= c.Model_check.budget)

(* --- scenario linter ----------------------------------------------------- *)

let has_code code diags = List.mem code (codes diags)

let test_lint_presets_clean () =
  let reports = List.map (fun (name, spec) -> (name, Lint.lint ~name spec)) Scenario.presets in
  Alcotest.(check bool) "all presets linted" true (List.length reports >= 6);
  List.iter
    (fun (name, diags) ->
      Alcotest.(check int) (name ^ " has no errors") 0 (Diagnostics.count Error diags);
      (* dual_mode_digest deliberately overruns the plain NeighborWatchRB
         bound (the demo shows dual-mode containment beyond it), so it is
         allowed exactly the byz-tolerance warning and nothing else. *)
      if name = "dual_mode_digest" then
        List.iter
          (fun (d : Diagnostics.diagnostic) ->
            if d.severity = Warning then
              Alcotest.(check string) (name ^ " warning is byz-tolerance") "byz-tolerance" d.code)
          diags
      else
        Alcotest.(check int) (name ^ " has no warnings") 0 (Diagnostics.count Warning diags))
    reports

let test_lint_default_clean () =
  Alcotest.(check bool) "default spec has no errors" false
    (Diagnostics.has_errors (Lint.lint ~name:"default" Scenario.default))

(* [(label, code, spec)]: linting [spec] must raise [code] as an Error. *)
let raises_error (label, code, spec) =
  Alcotest.(check bool) (label ^ " is a " ^ code ^ " error") true
    (List.exists
       (fun (d : Diagnostics.diagnostic) -> d.code = code && d.severity = Error)
       (Lint.lint ~name:"bad" spec))

let bad_specs =
  let d = Scenario.default in
  [
    ("zero round cap", "cap", { d with cap = 0 });
    ("negative radius", "radius", { d with radius = -1.0 });
    ( "tolerance above Koo's bound",
      "koo-impossibility",
      { d with protocol = Scenario.Multi_path { tolerance = 999 } } );
    ("fault fraction above 1", "fraction", { d with faults = Scenario.Lying 1.5 });
    ("oversized watch squares", "square-geometry", { d with square_side = Some 10.0 });
    ( "relay cap of zero",
      "relay-limit",
      { d with protocol = Scenario.Multi_path { tolerance = 1 }; heard_relay_limit = Some 0 } );
  ]

let test_lint_catches_bad_specs () = List.iter raises_error bad_specs

(* NaN compares false against everything, so a range check written as
   "below or above" lets it through.  A NaN fault fraction would otherwise
   round to zero Byzantine devices and silently run an honest network. *)
let nan_specs =
  let d = Scenario.default in
  [
    ( "NaN loss_prob",
      "channel",
      { d with channel = { Channel.ideal with Channel.loss_prob = nan } } );
    ( "NaN capture_ratio",
      "channel",
      { d with channel = { Channel.ideal with Channel.capture_ratio = nan } } );
    ("NaN map_w", "map-dims", { d with map_w = nan });
    ("NaN map_h", "map-dims", { d with map_h = nan });
    ("NaN radius", "radius", { d with radius = nan });
    ("NaN square_side", "square-geometry", { d with square_side = Some nan });
    ("Lying NaN", "fraction", { d with faults = Scenario.Lying nan });
    ("Crash NaN", "fraction", { d with faults = Scenario.Crash nan });
    ( "NaN jamming probability",
      "probability",
      { d with faults = Scenario.Jamming { fraction = 0.1; budget = 5; probability = nan } } );
    ( "NaN selective jamming probability",
      "probability",
      { d with faults = Scenario.Selective_jam { fraction = 0.1; budget = 5; probability = nan } }
    );
    ( "NaN cluster stddev",
      "deployment",
      { d with deployment = Scenario.Clustered { n = 600; clusters = 4; stddev = nan } } );
    ( "NaN triangulation jitter",
      "deployment",
      { d with deployment = Scenario.Triangulated { cols = 10; rows = 10; jitter = nan } } );
  ]

let test_lint_nan_parameters () =
  List.iter raises_error nan_specs;
  Alcotest.(check bool) "the default spec stays clean" false
    (Diagnostics.has_errors (Lint.lint ~name:"nan" Scenario.default))

(* 600 nodes on a 20x20 map with R=4: ~75 devices per neighbourhood, so
   40% liars vastly exceeds the ceil(R/2)^2 - 1 = 3 bound. *)
let overrun_spec = { Scenario.default with faults = Scenario.Lying 0.4 }

let test_lint_byz_tolerance_warning () =
  let diags = Lint.lint ~name:"overrun" overrun_spec in
  Alcotest.(check bool) "byz-tolerance warning fires" true (has_code "byz-tolerance" diags);
  Alcotest.(check bool) "it is a warning, not an error" false (Diagnostics.has_errors diags)

let test_lint_diagnostic_rendering () =
  match Lint.lint ~name:"render" { Scenario.default with cap = 0 } with
  | [] -> Alcotest.fail "expected a diagnostic"
  | d :: _ ->
    let s = Diagnostics.to_string d in
    Alcotest.(check bool) "names the scenario" true (contains ~affix:"render" s);
    Alcotest.(check bool) "names the field" true (contains ~affix:"cap" s);
    Alcotest.(check bool) "states the severity" true (contains ~affix:"error" s)

(* --- voting-layer checker ------------------------------------------------ *)

let vote_pass name = function
  | Vote_check.Pass { configurations; states } ->
    Alcotest.(check bool) (name ^ ": enumerated configurations") true (configurations > 0);
    Alcotest.(check bool) (name ^ ": states cover configurations") true (states >= configurations);
    configurations
  | Vote_check.Fail c ->
    Alcotest.failf "%s: unexpected counterexample:\n%s" name (Vote_check.counterexample_to_string c)

let vote_fail name = function
  | Vote_check.Fail c -> c
  | Vote_check.Pass { configurations; _ } ->
    Alcotest.failf "%s: expected a counterexample, got Pass over %d configurations" name
      configurations

let test_vote_multi_path_reference () =
  (* Radius 1 has tolerance 0: the only free choices are the two honest
     counts x two interleavings, all zero-adversary. *)
  Alcotest.(check int) "radius 1 is the 4-configuration degenerate space" 4
    (vote_pass "mp r=1" (Vote_check.check_multi_path ~radius:1 ()));
  let c2 = vote_pass "mp r=2" (Vote_check.check_multi_path ~radius:2 ()) in
  let c3 = vote_pass "mp r=3" (Vote_check.check_multi_path ~radius:3 ()) in
  Alcotest.(check bool) "space grows with the tolerance" true (c3 > c2 && c2 > 4)

let test_vote_multi_path_seeded () =
  let c = vote_fail "mp seeded" (Vote_check.check_multi_path ~impl:Vote_check.mp_seeded ~radius:2 ()) in
  Alcotest.(check string) "violated invariant" "mp-agreement" c.Vote_check.invariant;
  Alcotest.(check string) "protocol" "MultiPathRB" c.Vote_check.protocol;
  Alcotest.(check int) "radius" 2 c.Vote_check.radius;
  Alcotest.(check bool) "trace is non-empty" true (c.Vote_check.trace <> []);
  let rendered = Vote_check.counterexample_to_string c in
  Alcotest.(check bool) "rendering names the invariant" true
    (contains ~affix:"mp-agreement" rendered)

let test_vote_neighbor_watch_reference () =
  ignore (vote_pass "nw 1-voting r=2" (Vote_check.check_neighbor_watch ~votes:1 ~radius:2 ()));
  ignore (vote_pass "nw 2-voting r=3" (Vote_check.check_neighbor_watch ~votes:2 ~radius:3 ()))

let test_vote_neighbor_watch_seeded () =
  (* A threshold one vote short commits before the frontier has the
     evidence; the from-scratch reference poll disagrees at the first
     divergence.  At votes = 1 the broken threshold is 0, so the commit
     happens at the initial poll, before any event: the trace is empty by
     construction and only the setup line locates the failure. *)
  let c1 =
    vote_fail "nw seeded, 1-voting"
      (Vote_check.check_neighbor_watch ~impl:Vote_check.nw_seeded ~votes:1 ~radius:2 ())
  in
  Alcotest.(check string) "violated invariant" "nw-agreement" c1.Vote_check.invariant;
  Alcotest.(check string) "protocol" "NeighborWatchRB" c1.Vote_check.protocol;
  Alcotest.(check bool) "setup locates the configuration" true (c1.Vote_check.setup <> "");
  (* At votes = 2 the broken threshold is 1: the premature commit needs one
     real stream agreement first, so the trace shows the triggering event. *)
  let c2 =
    vote_fail "nw seeded, 2-voting"
      (Vote_check.check_neighbor_watch ~impl:Vote_check.nw_seeded ~votes:2 ~radius:2 ())
  in
  Alcotest.(check string) "violated invariant" "nw-agreement" c2.Vote_check.invariant;
  Alcotest.(check bool) "trace shows the triggering event" true (c2.Vote_check.trace <> [])

(* --- source lint ---------------------------------------------------------- *)

let source_lint ~path contents = lint_files Source_lint.lint [ (path, contents) ]
let source_codes ~path contents = codes (source_lint ~path contents)

let hashtbl_fixture =
  "let report tbl =\n  Hashtbl.iter (fun k v -> Printf.printf \"%d %d\\n\" k v) tbl\n"

let random_fixture = "let jitter () = Random.int 10\n"
let wall_clock_fixture = "let stamp () = Unix.gettimeofday ()\n"
let atomics_fixture = "let counter = Atomic.make 0\n"
let bare_engine_run = "let r = Engine.run ~topology ~machines ~waiters ~cap:100 ()\n"
let broken_fixture = "let let let"

let test_source_lint_fixtures () =
  Alcotest.(check (list string)) "Hashtbl.iter into output is flagged" [ "hashtbl-order" ]
    (source_codes ~path:"lib/analysis/report.ml" hashtbl_fixture);
  (match source_lint ~path:"lib/core/noise.ml" random_fixture with
  | [ d ] ->
    Alcotest.(check string) "unseeded Random is flagged" "ambient-random" d.code;
    Alcotest.(check int) "line number" 1 (snd (file_line d));
    Alcotest.(check bool) "it is an error" true (d.severity = Error)
  | diags -> Alcotest.failf "expected one diagnostic, got %d" (List.length diags));
  let clean_fixture =
    "let tally tbl =\n\
    \  List.sort (fun (a, _) (b, _) -> String.compare a b)\n\
    \    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])\n"
  in
  (* Hashtbl.fold is still flagged (sorting after does not make the fold
     deterministic for non-commutative accumulators) unless allowlisted. *)
  Alcotest.(check (list string)) "fold flagged outside the allowlist" [ "hashtbl-order" ]
    (source_codes ~path:"lib/analysis/tally.ml" clean_fixture);
  Alcotest.(check (list string)) "same text allowlisted in certified_propagation.ml" []
    (source_codes ~path:"lib/core/certified_propagation.ml" clean_fixture);
  Alcotest.(check (list string)) "typed comparators are clean" []
    (source_codes ~path:"lib/core/sorting.ml" "let xs = List.sort Float.compare [ 1.0; 2.0 ]\n")

let test_source_lint_exemptions () =
  let wall_clock = wall_clock_fixture in
  Alcotest.(check (list string)) "wall clock flagged in protocol code" [ "wall-clock" ]
    (source_codes ~path:"lib/core/clock.ml" wall_clock);
  Alcotest.(check (list string)) "wall clock allowed under lib/run/" []
    (source_codes ~path:"lib/run/wall.ml" wall_clock);
  Alcotest.(check (list string)) "wall clock allowed under bench/" []
    (source_codes ~path:"bench/timing.ml" wall_clock);
  let atomics = atomics_fixture in
  Alcotest.(check (list string)) "atomics flagged outside lib/run/" [ "domain-outside-run" ]
    (source_codes ~path:"lib/sim/counter.ml" atomics);
  Alcotest.(check (list string)) "atomics allowed in the job pool" []
    (source_codes ~path:"lib/run/pool.ml" atomics)

let test_source_lint_engine_mode () =
  let bare = bare_engine_run in
  (match source_lint ~path:"lib/analysis/driver.ml" bare with
  | [ d ] ->
    Alcotest.(check string) "Engine.run without ~mode is flagged" "engine-mode" d.code;
    Alcotest.(check int) "line number" 1 (snd (file_line d))
  | diags -> Alcotest.failf "expected one diagnostic, got %d" (List.length diags));
  let pinned = "let r = Engine.run ~mode:`Sparse ~topology ~machines ~waiters ~cap:100 ()\n" in
  Alcotest.(check (list string)) "explicit ~mode is clean" []
    (source_codes ~path:"lib/analysis/driver.ml" pinned);
  let forwarded = "let r ?mode () = Engine.run ?mode ~topology ~machines ~waiters ~cap:100 ()\n" in
  Alcotest.(check (list string)) "forwarding ?mode is clean" []
    (source_codes ~path:"lib/analysis/driver.ml" forwarded);
  Alcotest.(check (list string)) "the dense/sparse harness under lib/check is exempt" []
    (source_codes ~path:"lib/check/equivalence.ml" bare);
  (* Only applications are flagged: naming the function (to pass it along)
     does not commit to a mode at that point. *)
  Alcotest.(check (list string)) "a bare reference is clean" []
    (source_codes ~path:"lib/analysis/driver.ml" "let f = Engine.run\n")

(* [Source_lint.parse] is the one place a parse-error is built, and the
   lint reports it with its own findings. *)
let test_source_lint_parse_error () =
  match source_lint ~path:"lib/broken.ml" broken_fixture with
  | [ d ] ->
    Alcotest.(check string) "parse error code" "parse-error" d.code;
    Alcotest.(check (pair string int)) "located in the file" ("lib/broken.ml", 1) (file_line d)
  | diags -> Alcotest.failf "expected one diagnostic, got %d" (List.length diags)

(* A missing path raises instead of linting nothing: a renamed directory
   must not drop out of a lint silently (securebit_lint rejects it before
   this, exit 124; see test/cli). *)
let test_source_lint_missing_paths () =
  match Source_lint.source_files [ "no/such/dir" ] with
  | files -> Alcotest.failf "linted %d file(s) of a missing path" (List.length files)
  | exception Sys_error _ -> ()

(* --- allowlist hygiene ----------------------------------------------------- *)

let test_unused_allowlist_helper () =
  let allowlist = [ ("lib/a.ml", "x", 10); ("lib/b.ml", "y", 11) ] in
  let stale ~used ~linted =
    List.map file_line
      (Diagnostics.unused_allowlist ~file:"lib/check/demo.ml" ~linted ~used allowlist)
  in
  Alcotest.(check (list (pair string int)))
    "an entry that suppressed nothing is reported at its definition line"
    [ ("lib/check/demo.ml", 11) ]
    (stale ~used:[ ("lib/a.ml", "x", 10) ] ~linted:[ "lib/a.ml"; "lib/b.ml" ]);
  (* Entries whose file was not visited are not judged: linting one file
     must not condemn the rest of the allowlist. *)
  Alcotest.(check (list (pair string int)))
    "entries outside the visited file set are not judged" []
    (stale ~used:[] ~linted:[ "lib/other.ml" ]);
  (* Suffix matching: the visited path may be absolute. *)
  Alcotest.(check (list (pair string int)))
    "suffix-matched files count as visited"
    [ ("lib/check/demo.ml", 10) ]
    (stale ~used:[] ~linted:[ "/sandbox/repo/lib/a.ml" ])

let definition_line allowlist file code =
  match List.find_opt (fun (f, c, _) -> f = file && c = code) allowlist with
  | Some (_, _, line) -> line
  | None -> Alcotest.failf "no allowlist entry (%s, %s)" file code

let test_source_lint_allowlist_use_tracking () =
  (* certified_propagation.ml has a hashtbl-order allowlist entry; a fold
     uses it... *)
  let path = "lib/core/certified_propagation.ml" in
  let fold = "let t tbl = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []\n" in
  Alcotest.(check (list string)) "suppressed, and the entry counts as used" []
    (source_codes ~path fold);
  (* ...and clean contents leave it stale, reported where it is defined. *)
  match source_lint ~path "let x = 1\n" with
  | [ d ] ->
    Alcotest.(check string) "stale audit is an error" "unused-allowlist" d.code;
    Alcotest.(check (pair string int))
      "located at the entry's definition"
      ( "lib/check/source_lint.ml",
        definition_line Source_lint.allowlist path "hashtbl-order" )
      (file_line d)
  | diags -> Alcotest.failf "expected one diagnostic, got %d" (List.length diags)

(* --- global-mutable -------------------------------------------------------- *)

(* A top-level mutable cell in a library module is shared by every trial
   the pool runs, on whichever domain runs it. *)

let global_mutable ~path contents =
  List.map
    (fun (d : Diagnostics.diagnostic) -> (d.code, snd (file_line d)))
    (source_lint ~path contents)

let test_global_mutable_fixture () =
  (* The committed fixture, linted under a library path: its counter is
     module state that every pool task bumps. *)
  let contents = read_fixture "racy_counter.ml" in
  Alcotest.(check (list (pair string int)))
    "the racy fixture's counter is flagged" [ ("global-mutable", 8) ]
    (global_mutable ~path:"lib/analysis/racy_counter.ml" contents);
  (* Outside lib/ the rule does not apply, so the fixture needs no audit
     at its committed path. *)
  Alcotest.(check (list (pair string int)))
    "clean at its committed path" []
    (global_mutable ~path:"test/fixtures/racy_counter.ml" contents)

let test_global_mutable_tables () =
  let cache = "let cache = Hashtbl.create 16\nlet lookup k = Hashtbl.find_opt cache k\n" in
  List.iter
    (fun path ->
      Alcotest.(check (list (pair string int)))
        ("a top-level table in " ^ path) [ ("global-mutable", 1) ]
        (global_mutable ~path cache))
    [ "lib/sim/cache.ml"; "lib/analysis/cache.ml" ];
  Alcotest.(check (list (pair string int)))
    "a constrained, Stdlib-qualified buffer" [ ("global-mutable", 1) ]
    (global_mutable ~path:"lib/core/log.ml" "let log : Buffer.t = Stdlib.Buffer.create 64\n");
  Alcotest.(check (list (pair string int)))
    "bench/ and test/ may keep module state" []
    (global_mutable ~path:"bench/cache.ml" cache @ global_mutable ~path:"test/cache.ml" cache)

let test_global_mutable_per_call () =
  (* A function that allocates a fresh table per call is not module state,
     nor is a cell bound inside a function body. *)
  Alcotest.(check (list (pair string int)))
    "per-call allocation is clean" []
    (global_mutable ~path:"lib/sim/fresh.ml"
       "let create n = Hashtbl.create n\n\
        let count xs =\n\
       \  let n = ref 0 in\n\
       \  List.iter (fun _ -> incr n) xs;\n\
       \  !n\n");
  (* Atomics are left to domain-outside-run, which confines them to
     lib/run/. *)
  Alcotest.(check (list (pair string int)))
    "an Atomic counter in the pool's directory is clean" []
    (global_mutable ~path:"lib/run/sweep.ml" "let hits = Atomic.make 0\n")

(* A module bound at top level is evaluated once, like the file itself, so
   its cells are module state at any depth. *)
let test_global_mutable_nested_modules () =
  List.iter
    (fun (label, contents) ->
      Alcotest.(check (list (pair string int)))
        label [ ("global-mutable", 1) ]
        (global_mutable ~path:"lib/sim/cache.ml" contents))
    [
      ("a table in a submodule", "module Cache = struct let table = Hashtbl.create 16 end\n");
      ( "through a signature constraint",
        "module Cache : sig val table : (int, int) Hashtbl.t end = struct\n\
        \  let table = Hashtbl.create 16\n\
         end\n"
        |> String.split_on_char '\n' |> String.concat " " );
      ("inside include struct", "include struct let hits = ref 0 end\n");
      ("in a recursive module", "module rec A : sig val t : int ref end = struct let t = ref 0 end\n");
      ( "two levels down",
        "module Outer = struct module Inner = struct let log = Buffer.create 8 end end\n" );
    ]

(* A functor body runs once per application and a [let module] once per
   evaluation: neither is module state. *)
let test_global_mutable_functor_body () =
  Alcotest.(check (list (pair string int)))
    "functor body and let module are clean" []
    (global_mutable ~path:"lib/sim/memo.ml"
       "module Make (K : Hashtbl.HashedType) = struct\n\
       \  module H = Hashtbl.Make (K)\n\
       \  let table = H.create 16\n\
       \  let cache = Hashtbl.create 16\n\
        end\n\
        let count xs =\n\
       \  let module C = struct let n = ref 0 end in\n\
       \  List.iter (fun _ -> incr C.n) xs;\n\
       \  !C.n\n")

(* A real race, planted in the runner: a trial counter that each trial
   bumps and folds into its seed, so the e8a rows at --jobs 4 differ from
   --jobs 1 (test_run's byte-identity test fails on it too). *)
let test_global_mutable_runner_plant () =
  let plant =
    "let trials_run = ref 0\n\n\
     let seeded spec () =\n\
    \  incr trials_run;\n\
    \  Scenario.run { spec with Scenario.seed = spec.Scenario.seed + !trials_run }\n"
  in
  Alcotest.(check (list (pair string int)))
    "the runner's trial counter is flagged" [ ("global-mutable", 1) ]
    (global_mutable ~path:"lib/run/runner.ml" plant)

(* --- golden diagnostic codes ---------------------------------------------- *)

(* The stable codes are the machine-readable interface of `securebit_lint
   --json`.  Each linter's are collected from what it emits on inputs that
   between them trigger every code (the bad specs and fixtures above, plus
   one input per code those miss), so renaming, dropping or adding an
   emitted code changes the set and must be flagged by review. *)

let emitted lint inputs = List.sort_uniq String.compare (List.concat_map (fun x -> codes (lint x)) inputs)
let third (_, _, spec) = spec

let test_golden_codes () =
  let d = Scenario.default in
  let specs =
    List.map third bad_specs @ List.map third nan_specs
    @ [
        overrun_spec;
        { d with message = Bitvec.of_string "" };
        { d with protocol = Scenario.Neighbor_watch { votes = 0 } };
        (* 20 devices on the 20x20 map: far under one per watch square. *)
        { d with deployment = Scenario.Uniform 20 };
        { d with heard_relay_limit = Some 4 };
        { d with protocol = Scenario.Multi_path { tolerance = -1 } };
        { d with faults = Scenario.Jamming { fraction = 0.1; budget = -1; probability = 0.5 } };
        { d with deployment = Scenario.Expander { n = 100; degree = 4 } };
      ]
  in
  Alcotest.(check (list string))
    "scenario linter codes"
    [
      "budget"; "byz-tolerance"; "cap"; "channel"; "deployment"; "fraction"; "koo-impossibility";
      "map-dims"; "message"; "non-geometric-bound"; "probability"; "radius"; "relay-limit";
      "sparse-squares"; "square-geometry"; "tolerance"; "unused-field"; "votes";
    ]
    (emitted (Lint.lint ~name:"golden") specs);
  let sources =
    [
      ("lib/analysis/report.ml", hashtbl_fixture);
      ("lib/core/order.ml", "let order xs = List.sort compare xs\n");
      ("lib/core/bucket.ml", "let bucket x = Hashtbl.hash x\n");
      ("lib/core/noise.ml", random_fixture);
      ("lib/core/clock.ml", wall_clock_fixture);
      ("lib/sim/counter.ml", atomics_fixture);
      ("lib/analysis/driver.ml", bare_engine_run);
      ("lib/analysis/racy_counter.ml", read_fixture "racy_counter.ml");
      (* Clean contents leave this file's allowlist entry stale. *)
      ("lib/core/certified_propagation.ml", "let x = 1\n");
      ("lib/broken.ml", broken_fixture);
    ]
  in
  Alcotest.(check (list string))
    "source lint codes"
    [
      "ambient-random"; "domain-outside-run"; "engine-mode"; "global-mutable"; "hashtbl-order";
      "parse-error"; "poly-compare"; "poly-hash"; "unused-allowlist"; "wall-clock";
    ]
    (emitted (fun (path, contents) -> source_lint ~path contents) sources)

(* --- determinism checker ------------------------------------------------- *)

let digest round transmitters observations =
  { Engine.round; transmitters; observations }

let test_fingerprints () =
  Alcotest.(check int) "silence" 0 (Engine.fingerprint_observation Channel.Silence);
  Alcotest.(check int) "busy" 1 (Engine.fingerprint_observation Channel.Busy);
  Alcotest.(check bool) "clear is distinct from both" true
    (Engine.fingerprint_observation (Channel.Clear 42) >= 2);
  Alcotest.(check int) "equal payloads fingerprint equally"
    (Engine.fingerprint_observation (Channel.Clear (1, true)))
    (Engine.fingerprint_observation (Channel.Clear (1, true)))

let test_diff_equal_and_divergent () =
  let a = [| digest 0 [ 1 ] [| 0; 1 |]; digest 1 [] [| 0; 0 |] |] in
  let b = [| digest 0 [ 1 ] [| 0; 1 |]; digest 1 [ 0 ] [| 1; 0 |] |] in
  (match Determinism.diff a a with
  | Determinism.Deterministic { rounds } -> Alcotest.(check int) "rounds" 2 rounds
  | Determinism.Diverged _ -> Alcotest.fail "identical traces reported divergent");
  (match Determinism.diff a b with
  | Determinism.Diverged { round; first; second } ->
    Alcotest.(check int) "first divergent round" 1 round;
    Alcotest.(check bool) "both digests present" true (first <> None && second <> None)
  | Determinism.Deterministic _ -> Alcotest.fail "divergence missed");
  match Determinism.diff a [| digest 0 [ 1 ] [| 0; 1 |] |] with
  | Determinism.Diverged { round; second; _ } ->
    Alcotest.(check int) "truncation detected at the shorter length" 1 round;
    Alcotest.(check bool) "second trace ended" true (second = None)
  | Determinism.Deterministic _ -> Alcotest.fail "truncated trace reported equal"

let test_check_spec_deterministic () =
  match Scenario.preset "epidemic_baseline" with
  | None -> Alcotest.fail "missing preset"
  | Some spec -> begin
    match Determinism.check_spec ~max_rounds:2_000 spec with
    | Determinism.Deterministic { rounds } ->
      Alcotest.(check bool) "executed some rounds" true (rounds > 0)
    | Determinism.Diverged _ as o ->
      Alcotest.failf "seeded run diverged: %s" (Determinism.outcome_to_string o)
  end

let test_mode_labels_roundtrip () =
  List.iter
    (fun mode ->
      Alcotest.(check bool)
        (Determinism.mode_label mode ^ " roundtrips")
        true
        (Determinism.mode_of_label (Determinism.mode_label mode) = Some mode))
    [ `Dense; `Sparse ];
  Alcotest.(check bool) "unknown spelling rejected" true (Determinism.mode_of_label "bogus" = None);
  Alcotest.(check bool) "sharded label rejected" true
    (Determinism.mode_of_label "sharded:2" = None)

let test_check_modes_cross_mode () =
  match Scenario.preset "epidemic_baseline" with
  | None -> Alcotest.fail "missing preset"
  | Some spec ->
    let results = Determinism.check_modes ~max_rounds:2_000 [ `Dense; `Sparse ] spec in
    Alcotest.(check (list (pair string string)))
      "every pair of modes is diffed" [ ("dense", "sparse") ] (List.map fst results);
    List.iter
      (fun ((a, b), outcome) ->
        match outcome with
        | Determinism.Deterministic { rounds } ->
          Alcotest.(check bool) (a ^ " vs " ^ b ^ " traced rounds") true (rounds > 0)
        | Determinism.Diverged _ as o ->
          Alcotest.failf "%s vs %s diverged: %s" a b (Determinism.outcome_to_string o))
      results;
    (* A single mode degenerates to the run-twice form. *)
    match Determinism.check_modes ~max_rounds:2_000 [ `Sparse ] spec with
    | [ (("sparse", "sparse"), Determinism.Deterministic _) ] -> ()
    | other -> Alcotest.failf "expected one self-pair, got %d entries" (List.length other)

(* Hidden cross-run state is exactly what the checker exists to catch:
   a machine driven by a counter that survives from the first run into the
   second produces a different transmission schedule the second time. *)
let test_collector_catches_shared_state () =
  let nodes = [| Node.make 0 (Point.make 0.0 0.0); Node.make 1 (Point.make 1.0 0.0) |] in
  let d = { Deployment.width = 1.0; height = 1.0; nodes } in
  let topology = Topology.build d (Propagation.disk_l2 1.5) in
  let leaked = ref 0 in
  let run () =
    let chatty =
      {
        Engine.act =
          (fun _ ->
            incr leaked;
            if !leaked mod 2 = 0 then Engine.Transmit 7 else Engine.Silent);
        observe = (fun _ _ -> ());
        observe_packed = None;
        delivered = (fun () -> None);
        next_active = Engine.always_active;
      }
    in
    let tap, finish = Determinism.collector () in
    ignore
      (Engine.run ~tap ~topology ~machines:[| chatty; Engine.silent_machine |]
         ~waiters:[| true; true |] ~cap:3 ());
    finish ()
  in
  let first = run () in
  let second = run () in
  Alcotest.(check int) "both runs traced to the cap" 3 (Array.length first);
  match Determinism.diff first second with
  | Determinism.Diverged { round; _ } ->
    (* Odd counter parity flips between runs of an odd-length schedule, so
       the very first round already differs. *)
    Alcotest.(check int) "diverges immediately" 0 round
  | Determinism.Deterministic _ -> Alcotest.fail "leaked state not detected"

let () =
  Alcotest.run "check"
    [
      ( "model checker",
        [
          Alcotest.test_case "2Bit reference passes (budgets 0-3)" `Quick test_two_bit_reference;
          Alcotest.test_case "1Hop reference passes (budgets 0-3)" `Quick test_one_hop_reference;
          Alcotest.test_case "skip-veto frame counterexample" `Quick
            test_skip_veto_frame_counterexample;
          Alcotest.test_case "skip-veto stream counterexample" `Quick
            test_skip_veto_stream_counterexample;
        ] );
      ( "scenario linter",
        [
          Alcotest.test_case "presets are clean" `Quick test_lint_presets_clean;
          Alcotest.test_case "default is clean" `Quick test_lint_default_clean;
          Alcotest.test_case "bad specs are caught" `Quick test_lint_catches_bad_specs;
          Alcotest.test_case "NaN parameters" `Quick test_lint_nan_parameters;
          Alcotest.test_case "byz-tolerance warning" `Quick test_lint_byz_tolerance_warning;
          Alcotest.test_case "diagnostic rendering" `Quick test_lint_diagnostic_rendering;
        ] );
      ( "vote checker",
        [
          Alcotest.test_case "MultiPathRB reference passes (radii 1-3)" `Quick
            test_vote_multi_path_reference;
          Alcotest.test_case "MultiPathRB seeded quorum off-by-one caught" `Quick
            test_vote_multi_path_seeded;
          Alcotest.test_case "NeighborWatchRB reference passes (1- and 2-voting)" `Quick
            test_vote_neighbor_watch_reference;
          Alcotest.test_case "NeighborWatchRB seeded quorum off-by-one caught" `Quick
            test_vote_neighbor_watch_seeded;
        ] );
      ( "source lint",
        [
          Alcotest.test_case "fixtures are flagged with stable codes" `Quick
            test_source_lint_fixtures;
          Alcotest.test_case "directory exemptions" `Quick test_source_lint_exemptions;
          Alcotest.test_case "Engine.run mode pinning" `Quick test_source_lint_engine_mode;
          Alcotest.test_case "parse errors surface as diagnostics" `Quick
            test_source_lint_parse_error;
          Alcotest.test_case "missing paths raise" `Quick test_source_lint_missing_paths;
          Alcotest.test_case "global-mutable: racy fixture" `Quick test_global_mutable_fixture;
          Alcotest.test_case "global-mutable: tables in lib/" `Quick test_global_mutable_tables;
          Alcotest.test_case "global-mutable: per-call cells" `Quick test_global_mutable_per_call;
          Alcotest.test_case "global-mutable: Runner plant" `Quick
            test_global_mutable_runner_plant;
          Alcotest.test_case "global-mutable: nested modules" `Quick
            test_global_mutable_nested_modules;
          Alcotest.test_case "global-mutable: functor bodies" `Quick
            test_global_mutable_functor_body;
          Alcotest.test_case "golden diagnostic codes" `Quick test_golden_codes;
        ] );
      ( "allowlist hygiene",
        [
          Alcotest.test_case "unused entries reported" `Quick test_unused_allowlist_helper;
          Alcotest.test_case "source lint tracks entry use" `Quick
            test_source_lint_allowlist_use_tracking;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "observation fingerprints" `Quick test_fingerprints;
          Alcotest.test_case "trace diff" `Quick test_diff_equal_and_divergent;
          Alcotest.test_case "seeded scenario is deterministic" `Quick
            test_check_spec_deterministic;
          Alcotest.test_case "mode labels roundtrip" `Quick test_mode_labels_roundtrip;
          Alcotest.test_case "cross-mode traces byte-identical" `Quick
            test_check_modes_cross_mode;
          Alcotest.test_case "shared state across runs detected" `Quick
            test_collector_catches_shared_state;
        ] );
    ]
