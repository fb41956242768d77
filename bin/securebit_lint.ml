(* securebit_lint — the static-analysis front end.

   `securebit_lint lint scenario`      validate scenario specs against the
                                       analytic bounds before simulating;
   `securebit_lint lint source`        AST lint for determinism and
                                       concurrency hazards in the sources;
   `securebit_lint lint share`         domain-safety lint: mutable state
                                       reachable from pool tasks;
   `securebit_lint lint alloc`         hot-path allocation audit: every
                                       allocation site a hot root reaches
                                       must be audited in the allowlist;
   `securebit_lint check twobit`       bounded model checking of the 2Bit
                                       frame and the 1Hop stream;
   `securebit_lint check vote`         exhaustive checking of the multi-hop
                                       voting layer (MultiPathRB quorum,
                                       NeighborWatchRB frontier vote);
   `securebit_lint check determinism`  run scenarios twice (or once per
                                       engine mode with --modes) and diff
                                       the round-by-round channel traces;
   `securebit_lint all`                every analyzer above behind one
                                       shared parse of the tree, with
                                       per-analyzer wall times.

   Each analyzer is one function below returning diagnostics or pass/fail
   check lines; the subcommands print them through one report path, and
   `all` runs the same functions from one list.  `dune build @lint` runs
   `all`.  `--json` emits machine-readable diagnostics for CI and
   editors. *)

open Cmdliner

(* --- what an analyzer returns, and the one report path ------------------ *)

(* A verifier's pass/fail line, printed as [label: line]; a failure also
   carries the message --json reports. *)
type check = { label : string; line : string; failure : string option }

let holds label line = { label; line; failure = None }
let violated label message = { label; line = "VIOLATION\n" ^ message; failure = Some message }

type outcome = Diags of Diagnostics.diagnostic list | Checks of check list

type report = {
  failed : bool;
  errors : int;
  warnings : int;
  items : Json.t list;  (* machine form: diagnostics, or the failed checks *)
  lines : string list;  (* human form *)
}

(* [strict] also fails on warnings. *)
let summarize ?(strict = false) = function
  | Diags ds ->
    let warnings = Diagnostics.count Warning ds in
    {
      failed = Diagnostics.has_errors ds || (strict && warnings > 0);
      errors = Diagnostics.count Error ds;
      warnings;
      items = List.map Diagnostics.to_json ds;
      lines = List.map Diagnostics.to_string ds;
    }
  | Checks cs ->
    let failures =
      List.filter_map
        (fun c ->
          Option.map
            (fun m -> Json.Obj [ ("check", Json.String c.label); ("message", Json.String m) ])
            c.failure)
        cs
    in
    {
      failed = failures <> [];
      errors = List.length failures;
      warnings = 0;
      items = failures;
      lines = List.map (fun c -> c.label ^ ": " ^ c.line) cs;
    }

let print_json fields = print_string (Json.to_string_pretty (Json.Obj fields))

(* Text: the report's lines, then [summary: ok|FAILED].  JSON: [head],
   the error count, [tail], then the diagnostics.  Exit 1 on failure. *)
let report ?(json = false) ?summary ?(head = []) ?(tail = []) r =
  if json then
    print_json
      (head @ [ ("errors", Json.Int r.errors) ] @ tail @ [ ("diagnostics", Json.List r.items) ])
  else begin
    List.iter print_endline r.lines;
    Option.iter (fun s -> Printf.printf "%s: %s\n" s (if r.failed then "FAILED" else "ok")) summary
  end;
  if r.failed then exit 1

(* --- the analyzers --------------------------------------------------------- *)

let read paths =
  List.map
    (fun path -> (path, In_channel.with_open_bin path In_channel.input_all))
    (Callgraph.source_files paths)

(* A source analyzer over the shared parse ({!Callgraph.parse}) of the
   tree; each reports the files that did not parse. *)
let source_lint lint (parsed, errors) = Diags (Diagnostics.sort (errors @ lint parsed))

let scenario targets = Diags (List.concat_map (fun (name, spec) -> Lint.lint ~name spec) targets)

let twobit ~impl ~budget ~receivers ~msg_len =
  let verdict label = function
    | Model_check.Pass { configurations } ->
      holds label
        (Printf.sprintf "ok — %d adversary configurations, all invariants hold" configurations)
    | Model_check.Fail ce -> violated label (Model_check.counterexample_to_string ce)
  in
  let frame =
    verdict
      (Printf.sprintf "2Bit frame  (budget %d, %d receivers)" budget receivers)
      (Model_check.check_two_bit ~impl ~receivers ~budget ())
  in
  let stream =
    verdict
      (Printf.sprintf "1Hop stream (budget %d, %d-bit messages)" budget msg_len)
      (Model_check.check_one_hop ~impl ~msg_len ~budget ())
  in
  Checks [ frame; stream ]

let vote ~seeded radii =
  let mp_impl, nw_impl =
    if seeded then (Vote_check.mp_seeded, Vote_check.nw_seeded)
    else (Vote_check.mp_reference, Vote_check.nw_reference)
  in
  let verdict label = function
    | Vote_check.Pass { configurations; states } ->
      holds label
        (Printf.sprintf
           "ok — %d Byzantine configurations, %d checked states, all invariants hold"
           configurations states)
    | Vote_check.Fail ce -> violated label (Vote_check.counterexample_to_string ce)
  in
  Checks
    (List.concat_map
       (fun r ->
         let nw votes =
           verdict
             (Printf.sprintf "NeighborWatchRB vote  (R=%d, %d-voting)" r votes)
             (Vote_check.check_neighbor_watch ~impl:nw_impl ~votes ~radius:r ())
         in
         let mp =
           verdict
             (Printf.sprintf "MultiPathRB quorum    (R=%d, t=%d)" r
                (Bounds.multi_path_tolerance ~radius:r))
             (Vote_check.check_multi_path ~impl:mp_impl ~radius:r ())
         in
         let nw1 = nw 1 in
         [ mp; nw1; nw 2 ])
       radii)

(* [modes = None] runs each scenario twice in the default mode; [Some ms]
   runs once per mode and diffs every pair. *)
let determinism ~max_rounds modes targets =
  let verdict label = function
    | Determinism.Deterministic { rounds } ->
      holds label (Printf.sprintf "deterministic over %d rounds" rounds)
    | Determinism.Diverged _ as outcome ->
      let message = Determinism.outcome_to_string outcome in
      { label; line = message; failure = Some message }
  in
  Checks
    (List.concat_map
       (fun (name, spec) ->
         match modes with
         | None -> [ verdict name (Determinism.check_spec ~max_rounds spec) ]
         | Some modes ->
           List.map
             (fun ((la, lb), outcome) ->
               verdict (Printf.sprintf "%s [%s vs %s]" name la lb) outcome)
             (Determinism.check_modes ~max_rounds modes spec))
       targets)

(* --- shared arguments ------------------------------------------------------ *)

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:
          "Emit diagnostics as JSON on stdout instead of text.  Exit status is unchanged: \
           non-zero iff any error-severity finding.")

(* [file] rejects a PATH that does not exist (exit 124, naming it), so a
   misspelt or renamed directory cannot lint nothing and pass. *)
let paths_arg =
  Arg.(
    value
    & pos_all file [ "lib"; "bin"; "bench"; "examples"; "test" ]
    & info [] ~docv:"PATH"
        ~doc:"Files or directories to analyze (default: lib bin bench examples test).")

let seed_violation_arg ~doc = Arg.(value & flag & info [ "seed-violation" ] ~doc)

let resolve_targets all names =
  if all || names = [] then Scenario.presets
  else
    List.map
      (fun name ->
        match Scenario.preset name with
        | Some spec -> (name, spec)
        | None ->
          Printf.eprintf "unknown scenario %s (known: %s)\n" name
            (String.concat ", " (List.map fst Scenario.presets));
          exit 2)
      names

let all_arg =
  Arg.(value & flag & info [ "all" ] ~doc:"Run over every bundled preset scenario (the default).")

let names_arg =
  Arg.(
    value
    & pos_all string []
    & info [] ~docv:"SCENARIO" ~doc:"Preset scenario names; omit for all presets.")

let analyzer name = ("analyzer", Json.String name)
let count key n = (key, Json.Int n)

(* --- lint scenario ----------------------------------------------------- *)

let lint_scenario_cmd =
  let strict_arg =
    Arg.(value & flag & info [ "strict" ] ~doc:"Treat warnings as errors (exit 1).")
  in
  let run all strict json names =
    let targets = resolve_targets all names in
    let r = summarize ~strict (scenario targets) in
    (* Text names each scenario that passes after its diagnostics. *)
    let lines =
      List.concat_map
        (fun ((name, _) as target) ->
          let one = summarize ~strict (scenario [ target ]) in
          let n = List.length one.lines in
          if one.failed then one.lines
          else if n = 0 then [ name ^ ": ok" ]
          else one.lines @ [ Printf.sprintf "%s: ok (%d diagnostic(s))" name n ])
        targets
    in
    report ~json
      ~summary:(Printf.sprintf "linted %d scenario(s)" (List.length targets))
      ~head:[ analyzer "scenario-lint"; count "scenarios" (List.length targets) ]
      ~tail:[ count "warnings" r.warnings ]
      { r with lines }
  in
  Cmd.v
    (Cmd.info "scenario"
       ~doc:
         "Validate scenario specs against the paper's resilience bounds, the square-partition \
          geometry preconditions and parameter sanity.")
    Term.(const run $ all_arg $ strict_arg $ json_arg $ names_arg)

(* --- lint source / share / alloc ------------------------------------------- *)

(* The three source lints take the same arguments: [--json], PATHs and,
   where the analyzer bundles a demo tree, [--seed-violation], which lints
   the demo files with the demo's lint instead of the PATHs. *)
let source_cmd name ~analyzer:label ~verb ?seed ~doc lint =
  let seeded =
    match seed with None -> Term.const false | Some (doc, _, _) -> seed_violation_arg ~doc
  in
  let run json seeded paths =
    let files, lint =
      match seed with
      | Some (_, demo, demo_lint) when seeded -> (demo, demo_lint)
      | Some _ | None -> (read paths, lint)
    in
    let n = List.length files in
    report ~json
      ~summary:(Printf.sprintf "%s %d file(s)" verb n)
      ~head:[ analyzer label; count "files" n ]
      (summarize (source_lint lint (Callgraph.parse files)))
  in
  Cmd.v (Cmd.info name ~doc) Term.(const run $ json_arg $ seeded $ paths_arg)

let lint_source_cmd =
  source_cmd "source" ~analyzer:"source-lint" ~verb:"linted"
    ~doc:
      "AST-level lint (compiler-libs) flagging determinism and concurrency hazards: Hashtbl \
       iteration order, polymorphic compare/hash, ambient Random, wall-clock reads and \
       Domain/Atomic use outside the job pool."
    Source_lint.lint

let lint_share_cmd =
  source_cmd "share" ~analyzer:"share-lint" ~verb:"analyzed"
    ~seed:
      ( "Analyze a bundled two-module demo that shares a Hashtbl cache, a ref counter and a \
         captured Buffer across pool tasks, to demonstrate the diagnostics.",
        Share_lint.seed_violation_files,
        Share_lint.lint )
    ~doc:
      "Domain-safety analysis: collect each module's top-level mutable state, then flag tasks \
       handed to Pool.map_array/Pool.map_list/Domain.spawn that reach top-level mutable globals \
       or mutate captured state without Atomic, plus any top-level mutable binding in lib/core \
       or lib/sim.  Pairs with the dynamic Pool.map_array ~sanitize check."
    Share_lint.lint

let lint_alloc_cmd =
  source_cmd "alloc" ~analyzer:"alloc-lint" ~verb:"analyzed"
    ~seed:
      ( "Analyze a bundled fake hot loop that boxes floats, closes over a variable and builds \
         throwaway lists per round, to demonstrate the diagnostics.",
        Alloc_lint.seed_violation_files,
        Alloc_lint.lint ~roots:Alloc_lint.seed_violation_roots )
    ~doc:
      "Hot-path allocation audit: walk the approximate call graph from the annotated hot roots \
       (engine round phases, channel resolution, voting kernels) and classify every syntactic \
       allocation site.  Each site is an error coded alloc-<class> unless the allowlist in \
       lib/check/alloc_lint.ml audits that class for that file.  Pairs with the dynamic \
       words/active-round gate of `securebit_cli compare`."
    (fun parsed -> Alloc_lint.lint parsed)

let lint_group =
  Cmd.group
    (Cmd.info "lint" ~doc:"Static validation of configurations and sources.")
    [ lint_scenario_cmd; lint_source_cmd; lint_share_cmd; lint_alloc_cmd ]

(* --- check twobit ------------------------------------------------------ *)

let check_twobit_cmd =
  let budget_arg =
    Arg.(
      value & opt int 3
      & info [ "budget" ] ~docv:"N" ~doc:"Adversary broadcast budget (exhaustive for this bound).")
  in
  let receivers_arg =
    Arg.(value & opt int 2 & info [ "receivers" ] ~docv:"K" ~doc:"Honest receivers in the frame.")
  in
  let msg_len_arg =
    Arg.(
      value & opt int 2
      & info [ "msg-len" ] ~docv:"L" ~doc:"Message length for the 1Hop stream check.")
  in
  let seed_violation_arg =
    seed_violation_arg
      ~doc:
        "Use a deliberately broken receiver (deaf to the veto round) to demonstrate a \
         counterexample trace."
  in
  let run budget receivers msg_len seed_violation =
    let impl = if seed_violation then Model_check.faulty_skip_veto else Model_check.reference in
    match twobit ~impl ~budget ~receivers ~msg_len with
    | outcome -> report (summarize outcome)
    | exception Invalid_argument msg ->
      Printf.eprintf "invalid arguments: %s\n" msg;
      exit 2
  in
  Cmd.v
    (Cmd.info "twobit"
       ~doc:
         "Bounded model checking: enumerate every Byzantine transmit/silence pattern within the \
          budget over the 2Bit frame and the 1Hop stream, asserting the paper's no-forgery and \
          agreement invariants.")
    Term.(const run $ budget_arg $ receivers_arg $ msg_len_arg $ seed_violation_arg)

(* --- check vote --------------------------------------------------------- *)

let check_vote_cmd =
  let radius_arg =
    Arg.(
      value & opt int 0
      & info [ "radius" ] ~docv:"R"
          ~doc:"Neighbourhood radius 1-3 to check (default: all three).")
  in
  let seed_violation_arg =
    seed_violation_arg
      ~doc:
        "Plant a quorum off-by-one (MultiPathRB commits at t instead of t+1 pieces of \
         evidence, NeighborWatchRB commits one vote early) to demonstrate a counterexample \
         trace."
  in
  let run radius seeded =
    let radii =
      match radius with
      | 0 -> [ 1; 2; 3 ]
      | r when r >= 1 && r <= 3 -> [ r ]
      | r ->
        Printf.eprintf "radius %d out of range (the checker enumerates radii 1-3)\n" r;
        exit 2
    in
    report (summarize (vote ~seeded radii))
  in
  Cmd.v
    (Cmd.info "vote"
       ~doc:
         "Exhaustive checking of the multi-hop voting layer: enumerate Byzantine evidence \
          injection/withholding/replay patterns against MultiPathRB's t+1 common-neighbourhood \
          quorum (incremental index, full scan and an independent reference implementation must \
          agree) and liar stream patterns against NeighborWatchRB's frontier vote (1- and \
          2-voting).")
    Term.(const run $ radius_arg $ seed_violation_arg)

(* --- check determinism ------------------------------------------------- *)

let check_determinism_cmd =
  let at_least_one =
    let parse s =
      match int_of_string_opt s with
      | Some n when n >= 1 -> Ok n
      | Some _ | None -> Error (`Msg (Printf.sprintf "%S is not a round count of at least 1" s))
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  let max_rounds_arg =
    Arg.(
      value
      & opt at_least_one 20_000
      & info [ "max-rounds" ] ~docv:"N" ~doc:"Cap traced rounds per run (keeps the check cheap).")
  in
  let modes_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "modes" ] ~docv:"M1,M2,..."
          ~doc:
            "Comma-separated engine modes to cross-check (dense, sparse); one traced \
             run per mode, every pair diffed.  Default: run each scenario twice in the default \
             mode.")
  in
  let parse_modes spec =
    let labels =
      List.filter (fun l -> l <> "") (List.map String.trim (String.split_on_char ',' spec))
    in
    let modes =
      List.map
        (fun label ->
          match Determinism.mode_of_label label with
          | Some mode -> mode
          | None ->
            Printf.eprintf "unknown engine mode %s (expected dense or sparse)\n" label;
            exit 2)
        labels
    in
    if modes = [] then begin
      Printf.eprintf "--modes needs at least one mode (dense or sparse)\n";
      exit 2
    end;
    modes
  in
  let run all max_rounds modes names =
    let targets = resolve_targets all names in
    report (summarize (determinism ~max_rounds (Option.map parse_modes modes) targets))
  in
  Cmd.v
    (Cmd.info "determinism"
       ~doc:
         "Run each scenario twice with the same seed and diff the full round-by-round channel \
          trace; any divergence is hidden nondeterminism.  With --modes, run once per engine \
          mode instead and diff every pair — divergence there is a bug in one of the two named \
          loop implementations.")
    Term.(const run $ all_arg $ max_rounds_arg $ modes_arg $ names_arg)

let check_group =
  Cmd.group
    (Cmd.info "check" ~doc:"Dynamic verifiers: model checking and determinism.")
    [ check_twobit_cmd; check_vote_cmd; check_determinism_cmd ]

(* --- all ----------------------------------------------------------------- *)

(* Every analyzer once, the source ones behind one shared parse of the
   tree, with each analyzer's wall time so CI logs show where `dune build
   @lint` spends its budget.  The verifiers run the quick settings: the
   exhaustive budget-3 model check, radii 1-3 and the dense/sparse
   determinism diff over the presets (80-400 nodes). *)
let all_cmd =
  let run json paths =
    let contents = read paths in
    let files = List.length contents in
    let tree = Callgraph.parse contents in
    let analyzers =
      [
        ("source", fun () -> source_lint Source_lint.lint tree);
        ("share", fun () -> source_lint Share_lint.lint tree);
        ("alloc", fun () -> source_lint (fun parsed -> Alloc_lint.lint parsed) tree);
        ("scenario", fun () -> scenario Scenario.presets);
        ( "twobit",
          fun () -> twobit ~impl:Model_check.reference ~budget:3 ~receivers:2 ~msg_len:2 );
        ("vote", fun () -> vote ~seeded:false [ 1; 2; 3 ]);
        ( "determinism",
          fun () -> determinism ~max_rounds:20_000 (Some [ `Dense; `Sparse ]) Scenario.presets );
      ]
    in
    let results =
      List.map
        (fun (name, analyze) ->
          let t0 = Unix.gettimeofday () in
          let r = summarize (analyze ()) in
          (name, Unix.gettimeofday () -. t0, r))
        analyzers
    in
    let failed = List.exists (fun (_, _, r) -> r.failed) results in
    if json then
      print_json
        [
          analyzer "all";
          count "files" files;
          ( "analyzers",
            Json.List
              (List.map
                 (fun (name, wall, r) ->
                   Json.Obj
                     [
                       ("name", Json.String name);
                       ("wall_seconds", Json.Float wall);
                       ("failed", Json.Bool r.failed);
                       count "errors" r.errors;
                       count "warnings" r.warnings;
                       ("diagnostics", Json.List r.items);
                     ])
                 results) );
          ("failed", Json.Bool failed);
        ]
    else begin
      List.iter
        (fun (name, wall, r) ->
          Printf.printf "== %-12s %6.2fs  %s" name wall (if r.failed then "FAILED" else "ok");
          if r.errors > 0 || r.warnings > 0 then
            Printf.printf " (%d error(s), %d warning(s))" r.errors r.warnings;
          print_newline ();
          List.iter (fun line -> Printf.printf "   %s\n" line) r.lines)
        results;
      Printf.printf "all: %d analyzer(s) over %d file(s): %s\n" (List.length results) files
        (if failed then "FAILED" else "ok")
    end;
    if failed then exit 1
  in
  Cmd.v
    (Cmd.info "all"
       ~doc:
         "Run every analyzer — source, share and alloc lint behind one shared parse of the tree, \
          scenario lint over the bundled presets, the quick model-check budget, the voting \
          checker and the dense/sparse determinism diff over the presets — reporting \
          per-analyzer wall times and failing if any analyzer fails.")
    Term.(const run $ json_arg $ paths_arg)

let () =
  let doc = "protocol-invariant verifier and scenario linter (static checking)" in
  let info = Cmd.info "securebit_lint" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.group info [ lint_group; check_group; all_cmd ]))
