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

(* Lint in-memory files through the shared parse, as securebit_lint does. *)
let lint_files lint files =
  let parsed, errors = Callgraph.parse files in
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

let test_lint_catches_bad_specs () =
  let d = Scenario.default in
  let lint spec = Lint.lint ~name:"bad" spec in
  Alcotest.(check bool) "zero round cap" true (has_code "cap" (lint { d with cap = 0 }));
  Alcotest.(check bool) "negative radius" true (has_code "radius" (lint { d with radius = -1.0 }));
  Alcotest.(check bool) "tolerance above Koo's bound" true
    (has_code "koo-impossibility"
       (lint { d with protocol = Scenario.Multi_path { tolerance = 999 } }));
  Alcotest.(check bool) "fault fraction above 1" true
    (has_code "fraction" (lint { d with faults = Scenario.Lying 1.5 }));
  Alcotest.(check bool) "oversized watch squares" true
    (has_code "square-geometry" (lint { d with square_side = Some 10.0 }));
  Alcotest.(check bool) "relay cap of zero" true
    (has_code "relay-limit"
       (lint
          {
            d with
            protocol = Scenario.Multi_path { tolerance = 1 };
            heard_relay_limit = Some 0;
          }));
  (* All of the above are Errors, not mere Warnings. *)
  Alcotest.(check bool) "cap diagnostic is an error" true
    (Diagnostics.has_errors (lint { d with cap = 0 }))

(* NaN compares false against everything, so a range check written as
   "below or above" lets it through.  A NaN fault fraction would otherwise
   round to zero Byzantine devices and silently run an honest network. *)
let test_lint_nan_parameters () =
  let d = Scenario.default in
  let nan_error name code spec =
    Alcotest.(check bool) (name ^ " is a " ^ code ^ " error") true
      (List.exists
         (fun (d : Diagnostics.diagnostic) -> d.code = code && d.severity = Error)
         (Lint.lint ~name:"nan" spec))
  in
  nan_error "NaN loss_prob" "channel"
    { d with channel = { Channel.ideal with Channel.loss_prob = nan } };
  nan_error "NaN capture_ratio" "channel"
    { d with channel = { Channel.ideal with Channel.capture_ratio = nan } };
  nan_error "NaN map_w" "map-dims" { d with map_w = nan };
  nan_error "NaN map_h" "map-dims" { d with map_h = nan };
  nan_error "NaN radius" "radius" { d with radius = nan };
  nan_error "NaN square_side" "square-geometry" { d with square_side = Some nan };
  nan_error "Lying NaN" "fraction" { d with faults = Scenario.Lying nan };
  nan_error "Crash NaN" "fraction" { d with faults = Scenario.Crash nan };
  nan_error "NaN jamming probability" "probability"
    { d with faults = Scenario.Jamming { fraction = 0.1; budget = 5; probability = nan } };
  nan_error "NaN selective jamming probability" "probability"
    { d with faults = Scenario.Selective_jam { fraction = 0.1; budget = 5; probability = nan } };
  nan_error "NaN cluster stddev" "deployment"
    { d with deployment = Scenario.Clustered { n = 600; clusters = 4; stddev = nan } };
  nan_error "NaN triangulation jitter" "deployment"
    { d with deployment = Scenario.Triangulated { cols = 10; rows = 10; jitter = nan } };
  Alcotest.(check bool) "the default spec stays clean" false
    (Diagnostics.has_errors (Lint.lint ~name:"nan" d))

let test_lint_byz_tolerance_warning () =
  (* 600 nodes on a 20x20 map with R=4: ~75 devices per neighbourhood, so
     40% liars vastly exceeds the ceil(R/2)^2 - 1 = 3 bound. *)
  let diags = Lint.lint ~name:"overrun" { Scenario.default with faults = Scenario.Lying 0.4 } in
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

let test_source_lint_fixtures () =
  let hashtbl_fixture =
    "let report tbl =\n  Hashtbl.iter (fun k v -> Printf.printf \"%d %d\\n\" k v) tbl\n"
  in
  Alcotest.(check (list string)) "Hashtbl.iter into output is flagged" [ "hashtbl-order" ]
    (source_codes ~path:"lib/analysis/report.ml" hashtbl_fixture);
  let random_fixture = "let jitter () = Random.int 10\n" in
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
  Alcotest.(check (list string)) "same text allowlisted in bench/main.ml" []
    (source_codes ~path:"bench/main.ml" clean_fixture);
  Alcotest.(check (list string)) "typed comparators are clean" []
    (source_codes ~path:"lib/core/sorting.ml" "let xs = List.sort Float.compare [ 1.0; 2.0 ]\n")

let test_source_lint_exemptions () =
  let wall_clock = "let stamp () = Unix.gettimeofday ()\n" in
  Alcotest.(check (list string)) "wall clock flagged in protocol code" [ "wall-clock" ]
    (source_codes ~path:"lib/core/clock.ml" wall_clock);
  Alcotest.(check (list string)) "wall clock allowed under lib/run/" []
    (source_codes ~path:"lib/run/wall.ml" wall_clock);
  Alcotest.(check (list string)) "wall clock allowed under bench/" []
    (source_codes ~path:"bench/timing.ml" wall_clock);
  let atomics = "let counter = Atomic.make 0\n" in
  Alcotest.(check (list string)) "atomics flagged outside lib/run/" [ "domain-outside-run" ]
    (source_codes ~path:"lib/sim/counter.ml" atomics);
  (* lib/run/pool.ml itself carries a poly-hash audit that this one-line
     stand-in no longer exercises; the Atomic use is what must pass. *)
  Alcotest.(check (list string)) "atomics allowed in the job pool" [ "unused-allowlist" ]
    (source_codes ~path:"lib/run/pool.ml" atomics)

let test_source_lint_engine_mode () =
  let bare = "let r = Engine.run ~topology ~machines ~waiters ~cap:100 ()\n" in
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

(* The shared parse is the one place a parse-error is built; every source
   analyzer reports what it found. *)
let test_source_lint_parse_error () =
  match source_lint ~path:"lib/broken.ml" "let let let" with
  | [ d ] ->
    Alcotest.(check string) "parse error code" "parse-error" d.code;
    Alcotest.(check (pair string int)) "located in the file" ("lib/broken.ml", 1) (file_line d)
  | diags -> Alcotest.failf "expected one diagnostic, got %d" (List.length diags)

(* A missing path raises instead of linting nothing: a renamed directory
   must not drop out of a lint silently (securebit_lint rejects it before
   this, exit 124; see test/cli). *)
let test_source_lint_missing_paths () =
  match Callgraph.source_files [ "no/such/dir" ] with
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
  (* bench/main.ml has a hashtbl-order allowlist entry; a fold uses it... *)
  let fold = "let t tbl = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []\n" in
  Alcotest.(check (list string)) "suppressed, and the entry counts as used" []
    (source_codes ~path:"bench/main.ml" fold);
  (* ...and clean contents leave it stale, reported where it is defined. *)
  match source_lint ~path:"bench/main.ml" "let x = 1\n" with
  | [ d ] ->
    Alcotest.(check string) "stale audit is an error" "unused-allowlist" d.code;
    Alcotest.(check (pair string int))
      "located at the entry's definition"
      ( "lib/check/source_lint.ml",
        definition_line Source_lint.allowlist "bench/main.ml" "hashtbl-order" )
      (file_line d)
  | diags -> Alcotest.failf "expected one diagnostic, got %d" (List.length diags)

(* --- share lint ------------------------------------------------------------ *)

let share_lint files = lint_files Share_lint.lint files
let share_codes files = codes (share_lint files)

let test_share_lint_seed_violation () =
  let diags = share_lint Share_lint.seed_violation_files in
  Alcotest.(check bool) "the demo fails the lint" true (Diagnostics.has_errors diags);
  Alcotest.(check (list string))
    "all three rules fire on the bundled demo"
    [ "capture-mutates"; "global-mutable-core"; "shared-mutable" ]
    (List.sort_uniq String.compare (codes diags));
  (* The cross-module half: the task lives in lib/analysis but reaches the
     sim-layer cache, so the diagnostic must name the foreign global. *)
  let contains needle haystack =
    let n = String.length needle and h = String.length haystack in
    let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "cross-module capture names the foreign global" true
    (List.exists
       (fun (d : Diagnostics.diagnostic) ->
         d.code = "shared-mutable"
         && fst (file_line d) = "lib/analysis/seed_sweep.ml"
         && contains "Seed_cache.cache" d.message)
       diags)

let test_share_lint_clean_and_atomic () =
  let clean = "let sweep specs = Pool.map_array ~jobs:4 (fun spec -> 2 * spec) specs\n" in
  Alcotest.(check (list string)) "a self-contained task is clean" []
    (share_codes [ ("lib/analysis/sweep.ml", clean) ]);
  (* Atomics are the sanctioned cross-domain cell: inventoried, never
     flagged. *)
  let atomic =
    "let hits = Atomic.make 0\n\
     let sweep specs =\n\
    \  Pool.map_array ~jobs:4 (fun spec -> Atomic.incr hits; 2 * spec) specs\n"
  in
  Alcotest.(check (list string)) "an Atomic-mediated counter is clean" []
    (share_codes [ ("lib/run/sweep.ml", atomic) ])

let test_share_lint_global_mutable_core () =
  let cache = "let cache = Hashtbl.create 16\nlet lookup k = Hashtbl.find_opt cache k\n" in
  (match share_lint [ ("lib/sim/cache.ml", cache) ] with
  | [ d ] ->
    Alcotest.(check string) "toplevel mutable state in lib/sim" "global-mutable-core" d.code;
    Alcotest.(check int) "line of the binding" 1 (snd (file_line d))
  | diags -> Alcotest.failf "expected one diagnostic, got %d" (List.length diags));
  (* The same binding outside the state-free layers is inventoried but only
     an error if a pool task reaches it. *)
  Alcotest.(check (list string)) "mutable module state outside core/sim is tolerated" []
    (share_codes [ ("lib/analysis/cache.ml", cache) ]);
  (* A function that merely allocates a fresh table per call is not module
     state. *)
  Alcotest.(check (list string)) "per-call allocation is not a global" []
    (share_codes [ ("lib/sim/fresh.ml", "let create n = Hashtbl.create n\n") ])

let test_share_lint_reaches_named_helpers () =
  (* The task itself is innocent; the helper it calls mutates module
     state.  The intra-file call summary must follow the edge. *)
  let src =
    "let total = ref 0\n\
     let bump n = total := !total + n\n\
     let sweep specs = Pool.map_array ~jobs:2 (fun s -> bump s; s) specs\n"
  in
  (match share_lint [ ("lib/analysis/sweep.ml", src) ] with
  | [ d ] -> Alcotest.(check string) "reached through the helper" "shared-mutable" d.code
  | diags -> Alcotest.failf "expected one diagnostic, got %d" (List.length diags));
  (* Same helper handed to the pool by name instead of inside a lambda. *)
  let named =
    "let total = ref 0\n\
     let bump n =\n\
    \  total := !total + n;\n\
    \  n\n\
     let sweep specs = Pool.map_array ~jobs:2 bump specs\n"
  in
  Alcotest.(check (list string)) "named task functions are analyzed" [ "shared-mutable" ]
    (share_codes [ ("lib/analysis/named.ml", named) ])

let test_share_lint_racy_fixture () =
  (* The committed fixture, linted under a production path so the audited
     allowlist entry for its real location does not mask the finding. *)
  let contents =
    In_channel.with_open_bin "fixtures/racy_counter.ml" In_channel.input_all
  in
  Alcotest.(check (list string)) "the racy fixture is flagged statically" [ "shared-mutable" ]
    (share_codes [ ("lib/analysis/racy_counter.ml", contents) ]);
  (* At its committed path the entry suppresses the finding — and is
     therefore used, so no unused-allowlist complaint either. *)
  Alcotest.(check (list string)) "allowlisted at its committed path" []
    (share_codes [ ("test/fixtures/racy_counter.ml", contents) ])

let test_share_lint_unused_allowlist () =
  (* lib/run/pool.ml carries a capture-mutates audit; contents that no
     longer exercise it must surface the stale entry, at the line that
     defines it (the line to delete), not in the audited file. *)
  match share_lint [ ("lib/run/pool.ml", "let x = 1\n") ] with
  | [ d ] ->
    Alcotest.(check string) "stale audit is an error" "unused-allowlist" d.code;
    let file, line = file_line d in
    Alcotest.(check string) "located in the allowlist module" "lib/check/share_lint.ml" file;
    Alcotest.(check bool) "at a real line" true (line > 0);
    Alcotest.(check int) "at the entry's definition"
      (definition_line Share_lint.allowlist "lib/run/pool.ml" "capture-mutates")
      line
  | diags -> Alcotest.failf "expected one diagnostic, got %d" (List.length diags)

let test_share_lint_parse_error () =
  match share_lint [ ("lib/broken.ml", "let let let") ] with
  | [ d ] -> Alcotest.(check string) "parse error code" "parse-error" d.code
  | diags -> Alcotest.failf "expected one diagnostic, got %d" (List.length diags)

(* --- callgraph ------------------------------------------------------------ *)

let parse_exn ~path contents =
  match Callgraph.parse [ (path, contents) ] with
  | [ (_, structure) ], [] -> structure
  | _ -> Alcotest.failf "%s: fixture does not parse" path

(* A family of programs with the write hidden behind a helper chain of
   varying depth, handed to the pool either in a lambda or by name.  The
   property: Share_lint flags the program as shared-mutable exactly when
   Callgraph's whole-tree reachability from the task function reaches a
   function whose summary writes the global — the two analyses are built
   on the same machinery and must give the same verdict. *)
let chain_program ~named ~writes depth =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "let total = ref 0\n";
  Buffer.add_string buf
    (if writes then "let h0 n = total := !total + n; n\n" else "let h0 n = n + 1\n");
  for i = 1 to depth - 1 do
    Buffer.add_string buf (Printf.sprintf "let h%d n = h%d n\n" i (i - 1))
  done;
  let top = Printf.sprintf "h%d" (depth - 1) in
  Buffer.add_string buf
    (if named then Printf.sprintf "let sweep specs = Pool.map_array ~jobs:2 %s specs\n" top
     else Printf.sprintf "let sweep specs = Pool.map_array ~jobs:2 (fun s -> %s s) specs\n" top);
  Buffer.contents buf

let test_callgraph_matches_share_lint_verdicts () =
  List.iter
    (fun (named, writes, depth) ->
      let label = Printf.sprintf "named=%b writes=%b depth=%d" named writes depth in
      let src = chain_program ~named ~writes depth in
      let path = "lib/analysis/chain.ml" in
      let share_flags =
        List.mem "shared-mutable" (share_codes [ (path, src) ])
      in
      let graph = Callgraph.build [ (path, parse_exn ~path src) ] in
      let reached = Callgraph.reachable graph ~roots:[ "Chain.sweep" ] in
      let graph_flags =
        List.exists
          (fun fn ->
            List.exists
              (fun (w : Callgraph.write) -> w.Callgraph.target = "total")
              fn.Callgraph.fn_summary.Callgraph.fn_writes)
          reached
      in
      Alcotest.(check bool) (label ^ ": sweep itself is reached") true
        (List.exists (fun fn -> fn.Callgraph.fn_qual = "Chain.sweep") reached);
      Alcotest.(check bool) (label ^ ": verdicts agree") share_flags graph_flags;
      Alcotest.(check bool) (label ^ ": expected verdict") writes share_flags)
    (List.concat_map
       (fun depth -> [ (false, true, depth); (true, true, depth); (false, false, depth) ])
       [ 1; 2; 3 ])

(* --- alloc lint ----------------------------------------------------------- *)

let alloc_codes diags = List.sort_uniq String.compare (codes diags)
let alloc_lint ?roots files = lint_files (fun parsed -> Alloc_lint.lint ?roots parsed) files

let boxy_roots = [ ("boxy-round", [ "Boxy_hot_loop.process_round" ]) ]

let boxy_files () =
  [
    ( "lib/sim/boxy_hot_loop.ml",
      In_channel.with_open_bin "fixtures/boxy_hot_loop.ml" In_channel.input_all );
  ]

(* Is there an error coded alloc-<cls> in the fixture file? *)
let flags_class diags cls =
  List.exists
    (fun (d : Diagnostics.diagnostic) ->
      let file, line = file_line d in
      d.severity = Error && d.code = "alloc-" ^ cls && file = "lib/sim/boxy_hot_loop.ml" && line > 0)
    diags

let test_alloc_seed_violation () =
  let diags = alloc_lint ~roots:Alloc_lint.seed_violation_roots Alloc_lint.seed_violation_files in
  Alcotest.(check bool) "the demo fails the lint" true (Diagnostics.has_errors diags);
  Alcotest.(check (list string)) "every class of the demo fires"
    [ "alloc-boxed-float"; "alloc-closure"; "alloc-list"; "alloc-tuple" ]
    (alloc_codes diags);
  (* One error per (line, class) site: the demo's two floats on line 2
     are one site. *)
  Alcotest.(check int) "one error per site" 7 (List.length diags)

(* The acceptance bar for the analyzer: an injected hot-path boxed-float
   allocation (the committed fixture) must come back as an error located
   in the offending file. *)
let test_alloc_boxy_fixture () =
  let diags = alloc_lint ~roots:boxy_roots (boxy_files ()) in
  Alcotest.(check bool) "the fixture fails the lint" true (Diagnostics.has_errors diags);
  List.iter
    (fun cls -> Alcotest.(check bool) (cls ^ " flagged") true (flags_class diags cls))
    [ "boxed-float"; "closure"; "list" ]

(* The packed-observation regression tripwire: the fixture's old-style
   observe path (per-receiver option/tuple boxing, a closure over the
   round, a throwaway list per call) must keep tripping the analyzer on
   every class the flat-state engine rewrite eliminated. *)
let test_alloc_boxy_observe_path () =
  let roots = [ ("boxy-observe", [ "Boxy_hot_loop.observe_boxy" ]) ] in
  let diags = alloc_lint ~roots (boxy_files ()) in
  Alcotest.(check bool) "the observe path fails the lint" true (Diagnostics.has_errors diags);
  List.iter
    (fun cls ->
      Alcotest.(check bool) (cls ^ " flagged on the observe path") true (flags_class diags cls))
    [ "closure"; "tuple"; "ref"; "list" ]

(* Every site is an error unless its (file, class) pair is audited, so a
   new site of an unaudited class fails where a golden count diff let it
   pass as growth.  The fake engine.ml uses both of its audited classes;
   a ref planted in its root function fails with alloc-ref, at the
   plant. *)
let test_alloc_growth_fails_unless_audited () =
  let engine plant =
    [
      ( "lib/sim/engine.ml",
        "let process_round a i p =\n" ^ plant
        ^ "  a.(i) <- a.(i) +. p;\n  ignore (Array.make 1 p)\n" );
    ]
  in
  Alcotest.(check (list string)) "audited classes pass" [] (codes (alloc_lint (engine "")));
  match alloc_lint (engine "  let _z = ref 0 in\n") with
  | [ d ] ->
    Alcotest.(check string) "the planted ref fails" "alloc-ref" d.code;
    Alcotest.(check (pair string int)) "located at the plant" ("lib/sim/engine.ml", 2) (file_line d);
    Alcotest.(check bool) "it names the function and the root" true
      (contains ~affix:"Engine.process_round" d.message
      && contains ~affix:"engine-round" d.message)
  | diags -> Alcotest.failf "expected one diagnostic, got %d" (List.length diags)

let test_alloc_unused_allowlist () =
  (* A fake engine.ml whose root allocates nothing leaves exactly
     engine.ml's audits stale, each located at its definition line in the
     allowlist module itself. *)
  let engine_entries =
    List.filter (fun (file, _, _) -> file = "lib/sim/engine.ml") Alloc_lint.allowlist
  in
  Alcotest.(check bool) "engine.ml has audited entries" true (engine_entries <> []);
  Alcotest.(check (list (pair string int)))
    "exactly engine.ml's entries are stale, at their definition lines"
    (List.map (fun (_, _, line) -> ("lib/check/alloc_lint.ml", line)) engine_entries)
    (List.map file_line (alloc_lint [ ("lib/sim/engine.ml", "let process_round x = x + 1\n") ]));
  (* Only the files of reached functions are judged: a tree that reaches
     no hot root accuses no entry, even an audited file's. *)
  Alcotest.(check (list string)) "a tree that reaches no root judges nothing" []
    (codes
       (alloc_lint
          [ ("lib/analysis/other.ml", "let x = 1\n"); ("lib/util/calendar.ml", "let add t = t\n") ]))

let test_alloc_parse_error () =
  match
    List.filter
      (fun (d : Diagnostics.diagnostic) -> d.code = "parse-error")
      (alloc_lint ~roots:boxy_roots [ ("lib/broken.ml", "let let let") ])
  with
  | [ d ] -> Alcotest.(check string) "parse error located" "lib/broken.ml" (fst (file_line d))
  | diags -> Alcotest.failf "expected one parse error, got %d" (List.length diags)

(* --- golden diagnostic codes ---------------------------------------------- *)

(* The stable codes are the machine-readable interface of `securebit_lint
   --json`.  Adding a code extends these lists; renaming or dropping one is
   a breaking change and must be flagged by review. *)

let test_golden_codes () =
  Alcotest.(check (list string))
    "scenario linter codes"
    [
      "map-dims"; "radius"; "message"; "cap"; "deployment"; "channel"; "votes"; "square-geometry";
      "sparse-squares"; "unused-field"; "tolerance"; "koo-impossibility"; "relay-limit"; "fraction";
      "budget"; "probability"; "byz-tolerance"; "non-geometric-bound";
    ]
    Lint.codes;
  Alcotest.(check (list string))
    "source lint codes"
    [
      "hashtbl-order"; "poly-compare"; "poly-hash"; "ambient-random"; "wall-clock";
      "domain-outside-run"; "engine-mode"; "unused-allowlist"; "parse-error";
    ]
    Source_lint.codes;
  Alcotest.(check (list string))
    "share lint codes"
    [ "global-mutable-core"; "shared-mutable"; "capture-mutates"; "unused-allowlist"; "parse-error" ]
    Share_lint.codes;
  Alcotest.(check (list string))
    "alloc lint codes"
    [
      "alloc-closure"; "alloc-boxed-float"; "alloc-tuple"; "alloc-ref"; "alloc-list";
      "alloc-array"; "alloc-string"; "alloc-partial-application"; "unused-allowlist";
      "parse-error";
    ]
    Alloc_lint.codes

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
          Alcotest.test_case "golden diagnostic codes" `Quick test_golden_codes;
        ] );
      ( "allowlist hygiene",
        [
          Alcotest.test_case "unused entries reported" `Quick test_unused_allowlist_helper;
          Alcotest.test_case "source lint tracks entry use" `Quick
            test_source_lint_allowlist_use_tracking;
          Alcotest.test_case "share lint flags stale entries" `Quick
            test_share_lint_unused_allowlist;
        ] );
      ( "share lint",
        [
          Alcotest.test_case "seed violation fires all rules" `Quick
            test_share_lint_seed_violation;
          Alcotest.test_case "clean and Atomic-mediated tasks pass" `Quick
            test_share_lint_clean_and_atomic;
          Alcotest.test_case "lib/core and lib/sim are state-free" `Quick
            test_share_lint_global_mutable_core;
          Alcotest.test_case "reachability through named helpers" `Quick
            test_share_lint_reaches_named_helpers;
          Alcotest.test_case "racy fixture flagged statically" `Quick
            test_share_lint_racy_fixture;
          Alcotest.test_case "parse errors surface as diagnostics" `Quick
            test_share_lint_parse_error;
        ] );
      ( "callgraph",
        [
          Alcotest.test_case "whole-tree reachability matches share-lint verdicts" `Quick
            test_callgraph_matches_share_lint_verdicts;
        ] );
      ( "alloc lint",
        [
          Alcotest.test_case "seed violation fires on every class" `Quick
            test_alloc_seed_violation;
          Alcotest.test_case "boxy fixture flagged as new hot-path classes" `Quick
            test_alloc_boxy_fixture;
          Alcotest.test_case "old boxy observe path still trips the analyzer" `Quick
            test_alloc_boxy_observe_path;
          Alcotest.test_case "growth fails unless audited" `Quick
            test_alloc_growth_fails_unless_audited;
          Alcotest.test_case "stale allowlist entries located" `Quick
            test_alloc_unused_allowlist;
          Alcotest.test_case "parse errors surface as diagnostics" `Quick
            test_alloc_parse_error;
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
