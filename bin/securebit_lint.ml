(* securebit_lint — the static-analysis front end.

   `securebit_lint lint scenario`      validate scenario specs against the
                                       analytic bounds before simulating;
   `securebit_lint lint source`        AST lint for determinism and
                                       concurrency hazards in the sources;
   `securebit_lint lint share`         domain-safety lint: mutable state
                                       reachable from pool tasks;
   `securebit_lint lint alloc`         hot-path allocation inventory diffed
                                       against the committed golden file;
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

   `dune build @lint` runs `all`.  `--json` emits machine-readable
   diagnostics for CI and editors. *)

open Cmdliner

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:
          "Emit diagnostics as JSON on stdout instead of text.  Exit status is unchanged: \
           non-zero iff any error-severity finding.")

let known_scenarios () = String.concat ", " (List.map fst Scenario.presets)

let resolve_targets all names =
  if all || names = [] then Scenario.presets
  else
    List.map
      (fun name ->
        match Scenario.preset name with
        | Some spec -> (name, spec)
        | None ->
          Printf.eprintf "unknown scenario %s (known: %s)\n" name (known_scenarios ());
          exit 2)
      names

let all_arg =
  Arg.(value & flag & info [ "all" ] ~doc:"Run over every bundled preset scenario (the default).")

let names_arg =
  Arg.(
    value
    & pos_all string []
    & info [] ~docv:"SCENARIO" ~doc:"Preset scenario names; omit for all presets.")

(* --- lint scenario ----------------------------------------------------- *)

let scenario_diag_json (d : Lint.diagnostic) =
  Json.Obj
    [
      ("severity", Json.String (Lint.severity_label d.severity));
      ("scenario", Json.String d.scenario);
      ("field", Json.String d.field);
      ("code", Json.String d.code);
      ("message", Json.String d.message);
    ]

let lint_scenario_cmd =
  let strict_arg =
    Arg.(value & flag & info [ "strict" ] ~doc:"Treat warnings as errors (exit 1).")
  in
  let run all strict json names =
    let targets = resolve_targets all names in
    let failed = ref false in
    let all_diags = ref [] in
    List.iter
      (fun (name, spec) ->
        let diags = Lint.lint ~name spec in
        all_diags := !all_diags @ diags;
        if not json then List.iter (fun d -> print_endline (Lint.diagnostic_to_string d)) diags;
        if Lint.has_errors diags || (strict && Lint.count Lint.Warning diags > 0) then
          failed := true
        else if not json then
          if diags = [] then Printf.printf "%s: ok\n" name
          else Printf.printf "%s: ok (%d diagnostic(s))\n" name (List.length diags))
      targets;
    if json then
      print_string
        (Json.to_string_pretty
           (Json.Obj
              [
                ("analyzer", Json.String "scenario-lint");
                ("scenarios", Json.Int (List.length targets));
                ("errors", Json.Int (Lint.count Lint.Error !all_diags));
                ("warnings", Json.Int (Lint.count Lint.Warning !all_diags));
                ("diagnostics", Json.List (List.map scenario_diag_json !all_diags));
              ]))
    else
      Printf.printf "linted %d scenario(s): %s\n" (List.length targets)
        (if !failed then "FAILED" else "ok");
    if !failed then exit 1
  in
  Cmd.v
    (Cmd.info "scenario"
       ~doc:
         "Validate scenario specs against the paper's resilience bounds, the square-partition \
          geometry preconditions and parameter sanity.")
    Term.(const run $ all_arg $ strict_arg $ json_arg $ names_arg)

(* --- lint source -------------------------------------------------------- *)

let source_diag_json (d : Source_lint.diagnostic) =
  Json.Obj
    [
      ("severity", Json.String (Lint.severity_label d.severity));
      ("file", Json.String d.file);
      ("line", Json.Int d.line);
      ("code", Json.String d.code);
      ("message", Json.String d.message);
    ]

let lint_source_cmd =
  let paths_arg =
    Arg.(
      value
      & pos_all string [ "lib"; "bin"; "bench"; "examples"; "test" ]
      & info [] ~docv:"PATH"
          ~doc:"Files or directories to lint (default: lib bin bench examples test).")
  in
  let run json paths =
    let files = Source_lint.source_files paths in
    let diags = Source_lint.lint_paths paths in
    if json then
      print_string
        (Json.to_string_pretty
           (Json.Obj
              [
                ("analyzer", Json.String "source-lint");
                ("files", Json.Int (List.length files));
                ( "errors",
                  Json.Int
                    (List.length (List.filter (fun d -> d.Source_lint.severity = Lint.Error) diags))
                );
                ("diagnostics", Json.List (List.map source_diag_json diags));
              ]))
    else begin
      List.iter (fun d -> print_endline (Source_lint.diagnostic_to_string d)) diags;
      Printf.printf "linted %d file(s): %s\n" (List.length files)
        (if Source_lint.has_errors diags then "FAILED" else "ok")
    end;
    if Source_lint.has_errors diags then exit 1
  in
  Cmd.v
    (Cmd.info "source"
       ~doc:
         "AST-level lint (compiler-libs) flagging determinism and concurrency hazards: Hashtbl \
          iteration order, polymorphic compare/hash, ambient Random, wall-clock reads and \
          Domain/Atomic use outside the job pool.")
    Term.(const run $ json_arg $ paths_arg)

(* --- lint share --------------------------------------------------------- *)

let share_diag_json (d : Share_lint.diagnostic) =
  Json.Obj
    [
      ("severity", Json.String (Lint.severity_label d.severity));
      ("file", Json.String d.file);
      ("line", Json.Int d.line);
      ("code", Json.String d.code);
      ("message", Json.String d.message);
    ]

let lint_share_cmd =
  let paths_arg =
    Arg.(
      value
      & pos_all string [ "lib"; "bin"; "bench"; "examples"; "test" ]
      & info [] ~docv:"PATH"
          ~doc:"Files or directories to analyze (default: lib bin bench examples test).")
  in
  let seed_violation_arg =
    Arg.(
      value & flag
      & info [ "seed-violation" ]
          ~doc:
            "Analyze a bundled two-module demo that shares a Hashtbl cache, a ref counter and a \
             captured Buffer across pool tasks, to demonstrate the diagnostics.")
  in
  let inventory_arg =
    Arg.(
      value & flag
      & info [ "inventory" ]
          ~doc:
            "Print the escaping-mutable-state inventory (top-level mutable bindings and mutable \
             record fields per module) instead of diagnostics.  Always exits 0.")
  in
  let run json seed_violation inventory paths =
    let files =
      if seed_violation then List.map fst Share_lint.seed_violation_files
      else Source_lint.source_files paths
    in
    if inventory then begin
      let inv =
        if seed_violation then Share_lint.inventory_strings Share_lint.seed_violation_files
        else Share_lint.inventory_paths paths
      in
      if json then
        print_string
          (Json.to_string_pretty
             (Json.Obj
                [
                  ("analyzer", Json.String "share-lint-inventory");
                  ("files", Json.Int (List.length files));
                  ( "globals",
                    Json.List
                      (List.map
                         (fun (g : Share_lint.global) ->
                           Json.Obj
                             [
                               ("module", Json.String g.gmodule);
                               ("file", Json.String g.gfile);
                               ("line", Json.Int g.gline);
                               ("name", Json.String g.gname);
                               ("kind", Json.String (Share_lint.kind_label g.gkind));
                             ])
                         inv.Share_lint.globals) );
                  ( "mutable_fields",
                    Json.List
                      (List.map
                         (fun (f : Share_lint.mutable_field) ->
                           Json.Obj
                             [
                               ("module", Json.String f.fmodule);
                               ("file", Json.String f.ffile);
                               ("line", Json.Int f.fline);
                               ("type", Json.String f.ftype);
                               ("field", Json.String f.ffield);
                             ])
                         inv.Share_lint.fields) );
                ]))
      else begin
        List.iter
          (fun (g : Share_lint.global) ->
            Printf.printf "%s:%d: global %s.%s (%s)\n" g.gfile g.gline g.gmodule g.gname
              (Share_lint.kind_label g.gkind))
          inv.Share_lint.globals;
        List.iter
          (fun (f : Share_lint.mutable_field) ->
            Printf.printf "%s:%d: mutable field %s.%s.%s\n" f.ffile f.fline f.fmodule f.ftype
              f.ffield)
          inv.Share_lint.fields;
        Printf.printf "inventoried %d file(s): %d mutable global(s), %d mutable field(s)\n"
          (List.length files)
          (List.length inv.Share_lint.globals)
          (List.length inv.Share_lint.fields)
      end
    end
    else begin
      let diags =
        if seed_violation then Share_lint.seed_violation () else Share_lint.lint_paths paths
      in
      if json then
        print_string
          (Json.to_string_pretty
             (Json.Obj
                [
                  ("analyzer", Json.String "share-lint");
                  ("files", Json.Int (List.length files));
                  ( "errors",
                    Json.Int
                      (List.length
                         (List.filter (fun d -> d.Share_lint.severity = Lint.Error) diags)) );
                  ("diagnostics", Json.List (List.map share_diag_json diags));
                ]))
      else begin
        List.iter (fun d -> print_endline (Share_lint.diagnostic_to_string d)) diags;
        Printf.printf "analyzed %d file(s): %s\n" (List.length files)
          (if Share_lint.has_errors diags then "FAILED" else "ok")
      end;
      if Share_lint.has_errors diags then exit 1
    end
  in
  Cmd.v
    (Cmd.info "share"
       ~doc:
         "Domain-safety analysis: inventory escaping mutable state per module, then flag tasks \
          handed to Pool.map_array/Pool.map_list/Domain.spawn that reach top-level mutable \
          globals or mutate captured state without Atomic, plus any top-level mutable binding in \
          lib/core or lib/sim.  Pairs with the dynamic Pool.map_array ~sanitize check.")
    Term.(const run $ json_arg $ seed_violation_arg $ inventory_arg $ paths_arg)

(* --- lint alloc ---------------------------------------------------------- *)

let alloc_diag_json (d : Alloc_lint.diagnostic) =
  Json.Obj
    [
      ("severity", Json.String (Lint.severity_label d.severity));
      ("file", Json.String d.file);
      ("line", Json.Int d.line);
      ("code", Json.String d.code);
      ("message", Json.String d.message);
    ]

let alloc_allow_json (a : Alloc_lint.allow) =
  Json.Obj
    [
      ("file", Json.String a.al_file);
      ("class", Json.String a.al_class);
      ("fn", (match a.al_fn with Some f -> Json.String f | None -> Json.Null));
      ("line", Json.Int a.al_line);
      ("why", Json.String a.al_why);
    ]

let alloc_report ~json ~files_count ~baseline diags =
  let errors = List.length (List.filter (fun d -> d.Alloc_lint.severity = Lint.Error) diags) in
  let warnings = List.length (List.filter (fun d -> d.Alloc_lint.severity = Lint.Warning) diags) in
  if json then
    print_string
      (Json.to_string_pretty
         (Json.Obj
            [
              ("analyzer", Json.String "alloc-lint");
              ("files", Json.Int files_count);
              ("baseline", Json.String baseline);
              ("errors", Json.Int errors);
              ("warnings", Json.Int warnings);
              ("allowlist", Json.List (List.map alloc_allow_json Alloc_lint.allowlist));
              ("diagnostics", Json.List (List.map alloc_diag_json diags));
            ]))
  else begin
    List.iter (fun d -> print_endline (Alloc_lint.diagnostic_to_string d)) diags;
    Printf.printf "analyzed %d file(s) against %s: %s\n" files_count baseline
      (if Alloc_lint.has_errors diags then "FAILED" else "ok")
  end;
  if Alloc_lint.has_errors diags then exit 1

let lint_alloc_cmd =
  let paths_arg =
    Arg.(
      value
      & pos_all string [ "lib"; "bin"; "bench"; "examples"; "test" ]
      & info [] ~docv:"PATH"
          ~doc:"Files or directories to analyze (default: lib bin bench examples test).")
  in
  let baseline_arg =
    Arg.(
      value
      & opt string Alloc_lint.default_golden_name
      & info [ "baseline" ] ~docv:"FILE" ~doc:"Golden allocation inventory to diff against.")
  in
  let write_arg =
    Arg.(
      value & flag
      & info [ "write-baseline" ]
          ~doc:
            "Refresh: write the current inventory to the baseline file and exit 0.  Review the \
             diff before committing — every delta must be explained by an intentional hot-path \
             change.")
  in
  let inventory_arg =
    Arg.(
      value & flag
      & info [ "inventory" ]
          ~doc:"Print the current inventory as JSON instead of diffing.  Always exits 0.")
  in
  let sites_arg =
    Arg.(
      value & flag
      & info [ "sites" ]
          ~doc:
            "Print every classified allocation site (file:line class root function) instead of \
             diffing — the per-site audit trail behind an inventory count.  Always exits 0.")
  in
  let seed_violation_arg =
    Arg.(
      value & flag
      & info [ "seed-violation" ]
          ~doc:
            "Analyze a bundled fake hot loop that boxes floats, closes over a variable and builds \
             throwaway lists per round, diffed against an empty golden inventory, to demonstrate \
             the diagnostics.")
  in
  let run json baseline write inventory sites seed_violation paths =
    if seed_violation then
      alloc_report ~json
        ~files_count:(List.length Alloc_lint.seed_violation_files)
        ~baseline:"(empty golden)" (Alloc_lint.seed_violation ())
    else if sites then
      List.iter
        (fun (s : Alloc_lint.site) ->
          Printf.printf "%s:%d: %s %s %s\n" s.site_file s.site_line
            (Alloc_lint.class_label s.site_class)
            s.site_root s.site_fn)
        (Alloc_lint.sites_paths paths)
    else if write || inventory then begin
      let inv = Alloc_lint.inventory_paths paths in
      let text = Json.to_string_pretty (Alloc_lint.json_of_inventory inv) in
      if write then begin
        let oc = open_out baseline in
        output_string oc text;
        output_char oc '\n';
        close_out oc;
        Printf.printf "wrote %s (%d hot root(s))\n" baseline (List.length inv)
      end
      else print_endline text
    end
    else
      alloc_report ~json
        ~files_count:(List.length (Source_lint.source_files paths))
        ~baseline (Alloc_lint.lint_paths ~golden_path:baseline paths)
  in
  Cmd.v
    (Cmd.info "alloc"
       ~doc:
         "Hot-path allocation inventory: walk the approximate call graph from the annotated hot \
          roots (engine round phases, channel resolution, voting kernels), classify \
          every syntactic allocation site and diff the per-root per-class counts against the \
          committed golden inventory.  A class a hot root did not previously allocate is an \
          error; count growth is a warning.  Pairs with the dynamic words/active-round gate in \
          `bench compare`.")
    Term.(
      const run $ json_arg $ baseline_arg $ write_arg $ inventory_arg $ sites_arg
      $ seed_violation_arg $ paths_arg)

let lint_group =
  Cmd.group
    (Cmd.info "lint" ~doc:"Static validation of configurations and sources.")
    [ lint_scenario_cmd; lint_source_cmd; lint_share_cmd; lint_alloc_cmd ]

(* --- check twobit ------------------------------------------------------ *)

let report_outcome label = function
  | Model_check.Pass { configurations } ->
    Printf.printf "%s: ok — %d adversary configurations, all invariants hold\n" label
      configurations;
    true
  | Model_check.Fail counterexample ->
    Printf.printf "%s: VIOLATION\n%s\n" label (Model_check.counterexample_to_string counterexample);
    false

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
    Arg.(
      value & flag
      & info [ "seed-violation" ]
          ~doc:
            "Use a deliberately broken receiver (deaf to the veto round) to demonstrate a \
             counterexample trace.")
  in
  let run budget receivers msg_len seed_violation =
    let impl = if seed_violation then Model_check.faulty_skip_veto else Model_check.reference in
    match
      let frame =
        report_outcome
          (Printf.sprintf "2Bit frame  (budget %d, %d receivers)" budget receivers)
          (Model_check.check_two_bit ~impl ~receivers ~budget ())
      in
      let stream =
        report_outcome
          (Printf.sprintf "1Hop stream (budget %d, %d-bit messages)" budget msg_len)
          (Model_check.check_one_hop ~impl ~msg_len ~budget ())
      in
      frame && stream
    with
    | true -> ()
    | false -> exit 1
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

let report_vote label = function
  | Vote_check.Pass { configurations; states } ->
    Printf.printf "%s: ok — %d Byzantine configurations, %d checked states, all invariants hold\n"
      label configurations states;
    true
  | Vote_check.Fail ce ->
    Printf.printf "%s: VIOLATION\n%s\n" label (Vote_check.counterexample_to_string ce);
    false

let check_vote_cmd =
  let radius_arg =
    Arg.(
      value & opt int 0
      & info [ "radius" ] ~docv:"R"
          ~doc:"Neighbourhood radius 1-3 to check (default: all three).")
  in
  let seed_violation_arg =
    Arg.(
      value & flag
      & info [ "seed-violation" ]
          ~doc:
            "Plant a quorum off-by-one (MultiPathRB commits at t instead of t+1 pieces of \
             evidence, NeighborWatchRB commits one vote early) to demonstrate a counterexample \
             trace.")
  in
  let run radius seed_violation =
    let radii =
      match radius with
      | 0 -> [ 1; 2; 3 ]
      | r when r >= 1 && r <= 3 -> [ r ]
      | r ->
        Printf.eprintf "radius %d out of range (the checker enumerates radii 1-3)\n" r;
        exit 2
    in
    let mp_impl = if seed_violation then Vote_check.mp_seeded else Vote_check.mp_reference in
    let nw_impl = if seed_violation then Vote_check.nw_seeded else Vote_check.nw_reference in
    let ok = ref true in
    List.iter
      (fun r ->
        let tally label outcome = if not (report_vote label outcome) then ok := false in
        tally
          (Printf.sprintf "MultiPathRB quorum    (R=%d, t=%d)" r
             (Bounds.multi_path_tolerance ~radius:r))
          (Vote_check.check_multi_path ~impl:mp_impl ~radius:r ());
        tally
          (Printf.sprintf "NeighborWatchRB vote  (R=%d, 1-voting)" r)
          (Vote_check.check_neighbor_watch ~impl:nw_impl ~votes:1 ~radius:r ());
        tally
          (Printf.sprintf "NeighborWatchRB vote  (R=%d, 2-voting)" r)
          (Vote_check.check_neighbor_watch ~impl:nw_impl ~votes:2 ~radius:r ()))
      radii;
    if not !ok then exit 1
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
  let max_rounds_arg =
    Arg.(
      value & opt int 20_000
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
    let modes = Option.map parse_modes modes in
    let failed = ref false in
    List.iter
      (fun (name, spec) ->
        match modes with
        | None -> (
          match Determinism.check_spec ~max_rounds spec with
          | Determinism.Deterministic { rounds } ->
            Printf.printf "%s: deterministic over %d rounds\n" name rounds
          | Determinism.Diverged _ as outcome ->
            Printf.printf "%s: %s\n" name (Determinism.outcome_to_string outcome);
            failed := true)
        | Some modes ->
          List.iter
            (fun ((la, lb), outcome) ->
              match outcome with
              | Determinism.Deterministic { rounds } ->
                Printf.printf "%s [%s vs %s]: deterministic over %d rounds\n" name la lb rounds
              | Determinism.Diverged _ ->
                Printf.printf "%s [%s vs %s]: %s\n" name la lb
                  (Determinism.outcome_to_string outcome);
                failed := true)
            (Determinism.check_modes ~max_rounds modes spec))
      targets;
    if !failed then exit 1
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

(* One umbrella run of every analyzer: the three source analyzers (source,
   share, alloc) share a single read+parse of the tree instead of parsing
   it three times, and each analyzer's wall time is reported so CI logs
   show where `dune build @lint` spends its budget. *)

type analyzer_result = {
  ar_name : string;
  ar_wall : float;
  ar_failed : bool;
  ar_errors : int;
  ar_warnings : int;
  ar_diags : Json.t list;  (* machine form, analyzer-specific shape *)
  ar_lines : string list;  (* human form *)
}

let analyzer_json r =
  Json.Obj
    [
      ("name", Json.String r.ar_name);
      ("wall_seconds", Json.Float r.ar_wall);
      ("failed", Json.Bool r.ar_failed);
      ("errors", Json.Int r.ar_errors);
      ("warnings", Json.Int r.ar_warnings);
      ("diagnostics", Json.List r.ar_diags);
    ]

(* A pass/fail check entry: its report line, whether it failed, and the
   JSON diagnostic to emit when it did. *)
let check_entries entries =
  let fails = List.filter (fun (_, failed, _) -> failed) entries in
  ( fails <> [],
    List.length fails,
    0,
    List.filter_map (fun (_, _, json) -> json) entries,
    List.map (fun (line, _, _) -> line) entries )

let model_entry label outcome =
  match outcome with
  | Model_check.Pass { configurations } ->
    (Printf.sprintf "%s: ok — %d adversary configurations" label configurations, false, None)
  | Model_check.Fail ce ->
    let message = Model_check.counterexample_to_string ce in
    ( Printf.sprintf "%s: VIOLATION\n%s" label message,
      true,
      Some (Json.Obj [ ("check", Json.String label); ("message", Json.String message) ]) )

let vote_entry label outcome =
  match outcome with
  | Vote_check.Pass { configurations; states } ->
    ( Printf.sprintf "%s: ok — %d configurations, %d states" label configurations states,
      false,
      None )
  | Vote_check.Fail ce ->
    let message = Vote_check.counterexample_to_string ce in
    ( Printf.sprintf "%s: VIOLATION\n%s" label message,
      true,
      Some (Json.Obj [ ("check", Json.String label); ("message", Json.String message) ]) )

let all_cmd =
  let paths_arg =
    Arg.(
      value
      & pos_all string [ "lib"; "bin"; "bench"; "examples"; "test" ]
      & info [] ~docv:"PATH"
          ~doc:
            "Files or directories for the source analyzers (default: lib bin bench examples \
             test).")
  in
  let baseline_arg =
    Arg.(
      value
      & opt string Alloc_lint.default_golden_name
      & info [ "alloc-baseline" ] ~docv:"FILE"
          ~doc:"Golden allocation inventory for the alloc analyzer.")
  in
  let run json baseline paths =
    let files = Source_lint.source_files paths in
    let contents = List.map (fun path -> (path, Callgraph.read_file path)) files in
    let parsed, parse_errors =
      List.fold_left
        (fun (parsed, errors) (path, text) ->
          match Callgraph.parse_string ~path text with
          | Ok structure -> ((path, structure) :: parsed, errors)
          | Error line -> (parsed, (path, line) :: errors))
        ([], []) contents
    in
    let parsed = List.rev parsed and parse_errors = List.rev parse_errors in
    let results = ref [] in
    let timed name f =
      let t0 = Unix.gettimeofday () in
      let failed, errors, warnings, diags, lines = f () in
      results :=
        {
          ar_name = name;
          ar_wall = Unix.gettimeofday () -. t0;
          ar_failed = failed;
          ar_errors = errors;
          ar_warnings = warnings;
          ar_diags = diags;
          ar_lines = lines;
        }
        :: !results
    in
    timed "source" (fun () ->
        let per_file =
          List.map (fun (path, structure) -> Source_lint.lint_structure_used ~path structure) parsed
        in
        let diags =
          List.map
            (fun (path, line) ->
              {
                Source_lint.severity = Lint.Error;
                file = path;
                line;
                code = "parse-error";
                message = "file does not parse as an OCaml implementation";
              })
            parse_errors
          @ List.concat_map fst per_file
          @ Source_lint.unused_diagnostics ~used:(List.concat_map snd per_file) ~files
        in
        ( Source_lint.has_errors diags,
          List.length (List.filter (fun d -> d.Source_lint.severity = Lint.Error) diags),
          List.length (List.filter (fun d -> d.Source_lint.severity = Lint.Warning) diags),
          List.map source_diag_json diags,
          List.map Source_lint.diagnostic_to_string diags ));
    timed "share" (fun () ->
        let diags = Share_lint.lint_structures parsed in
        ( Share_lint.has_errors diags,
          List.length (List.filter (fun d -> d.Share_lint.severity = Lint.Error) diags),
          List.length (List.filter (fun d -> d.Share_lint.severity = Lint.Warning) diags),
          List.map share_diag_json diags,
          List.map Share_lint.diagnostic_to_string diags ));
    timed "alloc" (fun () ->
        let diags =
          Alloc_lint.lint_structures ~golden_name:baseline
            ~golden:(Alloc_lint.load_golden baseline) parsed
        in
        ( Alloc_lint.has_errors diags,
          List.length (List.filter (fun d -> d.Alloc_lint.severity = Lint.Error) diags),
          List.length (List.filter (fun d -> d.Alloc_lint.severity = Lint.Warning) diags),
          List.map alloc_diag_json diags,
          List.map Alloc_lint.diagnostic_to_string diags ));
    timed "scenario" (fun () ->
        let diags =
          List.concat_map (fun (name, spec) -> Lint.lint ~name spec) Scenario.presets
        in
        ( Lint.has_errors diags,
          Lint.count Lint.Error diags,
          Lint.count Lint.Warning diags,
          List.map scenario_diag_json diags,
          List.map Lint.diagnostic_to_string diags ));
    (* Quick model-check budget: exhaustive for budget 3, the same cell the
       standalone @lint rule always ran. *)
    timed "twobit" (fun () ->
        check_entries
          [
            model_entry "2Bit frame (budget 3, 2 receivers)"
              (Model_check.check_two_bit ~impl:Model_check.reference ~receivers:2 ~budget:3 ());
            model_entry "1Hop stream (budget 3, 2-bit messages)"
              (Model_check.check_one_hop ~impl:Model_check.reference ~msg_len:2 ~budget:3 ());
          ]);
    timed "vote" (fun () ->
        check_entries
          (List.concat_map
             (fun radius ->
               [
                 vote_entry
                   (Printf.sprintf "MultiPathRB quorum (R=%d, t=%d)" radius
                      (Bounds.multi_path_tolerance ~radius))
                   (Vote_check.check_multi_path ~impl:Vote_check.mp_reference ~radius ());
                 vote_entry
                   (Printf.sprintf "NeighborWatchRB vote (R=%d, 1-voting)" radius)
                   (Vote_check.check_neighbor_watch ~impl:Vote_check.nw_reference ~votes:1 ~radius
                      ());
                 vote_entry
                   (Printf.sprintf "NeighborWatchRB vote (R=%d, 2-voting)" radius)
                   (Vote_check.check_neighbor_watch ~impl:Vote_check.nw_reference ~votes:2 ~radius
                      ());
               ])
             [ 1; 2; 3 ]));
    (* One traced run per engine mode, every pair diffed.  The presets
       have 80-400 nodes, so the sparse loop drains two to seven 62-id
       words per round. *)
    timed "determinism" (fun () ->
        check_entries
          (List.concat_map
             (fun (name, spec) ->
               List.map
                 (fun ((la, lb), outcome) ->
                   let check = Printf.sprintf "%s [%s vs %s]" name la lb in
                   match outcome with
                   | Determinism.Deterministic { rounds } ->
                     (Printf.sprintf "%s: deterministic over %d rounds" check rounds, false, None)
                   | Determinism.Diverged _ ->
                     let message = Determinism.outcome_to_string outcome in
                     ( Printf.sprintf "%s: %s" check message,
                       true,
                       Some
                         (Json.Obj
                            [ ("check", Json.String check); ("message", Json.String message) ]) ))
                 (Determinism.check_modes ~max_rounds:20_000 [ `Dense; `Sparse ] spec))
             Scenario.presets));
    let results = List.rev !results in
    let failed = List.exists (fun r -> r.ar_failed) results in
    if json then
      print_string
        (Json.to_string_pretty
           (Json.Obj
              [
                ("analyzer", Json.String "all");
                ("files", Json.Int (List.length files));
                ("analyzers", Json.List (List.map analyzer_json results));
                ("failed", Json.Bool failed);
              ]))
    else begin
      List.iter
        (fun r ->
          Printf.printf "== %-12s %6.2fs  %s" r.ar_name r.ar_wall
            (if r.ar_failed then "FAILED" else "ok");
          if r.ar_errors > 0 || r.ar_warnings > 0 then
            Printf.printf " (%d error(s), %d warning(s))" r.ar_errors r.ar_warnings;
          print_newline ();
          List.iter (fun line -> Printf.printf "   %s\n" line) r.ar_lines)
        results;
      Printf.printf "all: %d analyzer(s) over %d file(s): %s\n" (List.length results)
        (List.length files)
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
          per-analyzer wall times and failing if \
          any analyzer fails.")
    Term.(const run $ json_arg $ baseline_arg $ paths_arg)

let () =
  let doc = "protocol-invariant verifier and scenario linter (static checking)" in
  let info = Cmd.info "securebit_lint" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.group info [ lint_group; check_group; all_cmd ]))
