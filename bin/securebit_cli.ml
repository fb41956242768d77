(* securebit — command-line front end.

   `securebit run`   simulates one authenticated broadcast and prints the
                     metrics the paper reports;
   `securebit fig`   regenerates a table/figure of the evaluation (E1–E8,
                     A1–A5, bounds, mobile, or `all`);
   `securebit bench` runs the registered experiments and writes the JSON
                     results file;
   `securebit compare` checks one results file against a baseline one and
                     exits 1 when a gate's limit is exceeded;
   `securebit scale` runs a scale campaign (node count x density x
                     adversary mix over two graph classes);
   `securebit topo`  prints topology statistics of a deployment. *)

open Cmdliner

(* --- shared options ---------------------------------------------------- *)

(* Converters reject what the simulation cannot run, with the scenario
   linter's ranges, so a bad value exits 124 naming its option instead of
   failing inside Deployment or running a degenerate broadcast. *)
let at_least_one what =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | Some _ | None -> Error (`Msg (Printf.sprintf "%S is not a %s of at least 1" s what))
  in
  Arg.conv (parse, Format.pp_print_int)

(* NaN fails both comparisons. *)
let in_unit_interval s =
  match float_of_string_opt s with Some x when x >= 0.0 && x <= 1.0 -> Some x | _ -> None

let positive_length =
  let parse s =
    match float_of_string_opt s with
    | Some x when x > 0.0 && Float.is_finite x -> Ok x
    | Some _ | None -> Error (`Msg (Printf.sprintf "%S is not a positive finite length" s))
  in
  Arg.conv (parse, Format.pp_print_float)

let map_arg =
  Arg.(
    value & opt positive_length 20.0 & info [ "map" ] ~docv:"UNITS" ~doc:"Square map side length.")

let nodes_arg =
  Arg.(
    value
    & opt (at_least_one "device count") 600
    & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Number of devices.")

let radius_arg =
  Arg.(
    value & opt positive_length 4.0 & info [ "r"; "radius" ] ~docv:"R" ~doc:"Broadcast range.")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let message_arg =
  let bits =
    let parse s =
      if s <> "" && String.for_all (fun c -> c = '0' || c = '1') s then Ok s
      else Error (`Msg (Printf.sprintf "%S is not a non-empty pattern of 0s and 1s" s))
    in
    Arg.conv (parse, Format.pp_print_string)
  in
  Arg.(
    value
    & opt bits "1011"
    & info [ "m"; "message" ] ~docv:"BITS" ~doc:"Broadcast message as a bit pattern.")

let protocol_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ "nw" ] -> Ok (Scenario.Neighbor_watch { votes = 1 })
    | [ "nw2" ] -> Ok (Scenario.Neighbor_watch { votes = 2 })
    | [ "mp"; t ] -> (
      match int_of_string_opt t with
      | Some tolerance when tolerance >= 0 -> Ok (Scenario.Multi_path { tolerance })
      | Some _ | None -> Error (`Msg "mp:<t> needs a non-negative integer"))
    | [ "epidemic" ] -> Ok Scenario.Epidemic
    | [ "cpa"; t ] -> (
      match int_of_string_opt t with
      | Some tolerance when tolerance >= 0 -> Ok (Scenario.Certified { tolerance })
      | Some _ | None -> Error (`Msg "cpa:<t> needs a non-negative integer"))
    | _ -> Error (`Msg "expected nw | nw2 | mp:<t> | epidemic | cpa:<t>")
  in
  let print fmt = function
    | Scenario.Neighbor_watch { votes = 1 } -> Format.pp_print_string fmt "nw"
    | Scenario.Neighbor_watch { votes = _ } -> Format.pp_print_string fmt "nw2"
    | Scenario.Multi_path { tolerance } -> Format.fprintf fmt "mp:%d" tolerance
    | Scenario.Epidemic -> Format.pp_print_string fmt "epidemic"
    | Scenario.Certified { tolerance } -> Format.fprintf fmt "cpa:%d" tolerance
  in
  Arg.conv (parse, print)

let protocol_arg =
  Arg.(
    value
    & opt protocol_conv (Scenario.Neighbor_watch { votes = 1 })
    & info [ "p"; "protocol" ] ~docv:"PROTO"
        ~doc:"Protocol: nw (NeighborWatchRB), nw2 (2-voting), mp:<t> (MultiPathRB), epidemic.")

(* Fractions and probabilities lie in [0, 1]; a negative jam budget is
   legal and means the jammers never run out. *)
let faults_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ "none" ] -> Ok Scenario.No_faults
    | [ "crash"; f ] -> (
      match in_unit_interval f with
      | Some fraction -> Ok (Scenario.Crash fraction)
      | None -> Error (`Msg "crash:<fraction> needs a fraction in [0, 1]"))
    | [ "lie"; f ] -> (
      match in_unit_interval f with
      | Some fraction -> Ok (Scenario.Lying fraction)
      | None -> Error (`Msg "lie:<fraction> needs a fraction in [0, 1]"))
    | [ "jam"; f; b; p ] -> (
      match (in_unit_interval f, int_of_string_opt b, in_unit_interval p) with
      | Some fraction, Some budget, Some probability ->
        Ok (Scenario.Jamming { fraction; budget; probability })
      | _ -> Error (`Msg "jam:<fraction>:<budget>:<probability> needs f and p in [0, 1]"))
    | [ "sjam"; f; b; p ] -> (
      match (in_unit_interval f, int_of_string_opt b, in_unit_interval p) with
      | Some fraction, Some budget, Some probability ->
        Ok (Scenario.Selective_jam { fraction; budget; probability })
      | _ -> Error (`Msg "sjam:<fraction>:<budget>:<probability> needs f and p in [0, 1]"))
    | _ -> Error (`Msg "expected none | crash:<f> | lie:<f> | jam:<f>:<b>:<p> | sjam:<f>:<b>:<p>")
  in
  let print fmt = function
    | Scenario.No_faults -> Format.pp_print_string fmt "none"
    | Scenario.Crash f -> Format.fprintf fmt "crash:%g" f
    | Scenario.Lying f -> Format.fprintf fmt "lie:%g" f
    | Scenario.Jamming { fraction; budget; probability } ->
      Format.fprintf fmt "jam:%g:%d:%g" fraction budget probability
    | Scenario.Selective_jam { fraction; budget; probability } ->
      Format.fprintf fmt "sjam:%g:%d:%g" fraction budget probability
  in
  Arg.conv (parse, print)

let faults_arg =
  Arg.(
    value
    & opt faults_conv Scenario.No_faults
    & info [ "f"; "faults" ] ~docv:"FAULTS"
        ~doc:"Fault model: none, crash:<f>, lie:<f>, jam:<f>:<budget>:<p>.")

let radio_conv =
  Arg.enum [ ("friis", Scenario.Friis); ("disk", Scenario.Disk_l2); ("grid", Scenario.Disk_linf) ]

let radio_arg =
  Arg.(
    value
    & opt radio_conv Scenario.Friis
    & info [ "radio" ] ~docv:"MODEL" ~doc:"Radio model: friis, disk (L2) or grid (L-infinity).")

let clusters_arg =
  Arg.(
    value
    & opt (some (at_least_one "cluster count")) None
    & info [ "clusters" ] ~docv:"K" ~doc:"Deploy in K normal clusters instead of uniformly.")

let relay_cap_arg =
  Arg.(
    value
    & opt (some (at_least_one "relay cap")) None
    & info [ "heard-cap" ] ~docv:"K" ~doc:"Cap MultiPathRB HEARD relays per bit (default: none).")

let build_spec map nodes radius seed message protocol faults radio clusters relay_cap =
  {
    Scenario.default with
    map_w = map;
    map_h = map;
    deployment =
      (match clusters with
      | None -> Scenario.Uniform nodes
      | Some clusters -> Scenario.Clustered { n = nodes; clusters; stddev = 2.0 });
    radio;
    radius;
    message = Bitvec.of_string message;
    protocol;
    faults;
    heard_relay_limit = relay_cap;
    seed;
  }

let spec_term =
  Term.(
    const build_spec $ map_arg $ nodes_arg $ radius_arg $ seed_arg $ message_arg $ protocol_arg
    $ faults_arg $ radio_arg $ clusters_arg $ relay_cap_arg)

(* --- run --------------------------------------------------------------- *)

let run_cmd =
  let print_summary result =
    let s = Scenario.summarize result in
    let table = Table.create ~title:"broadcast summary" ~columns:[ "metric"; "value" ] in
    Table.add_row table [ "honest nodes"; Table.cell_i s.Scenario.honest_nodes ];
    Table.add_row table [ "delivered"; Table.cell_pct s.Scenario.completion_rate ];
    Table.add_row table [ "correct of delivered"; Table.cell_pct s.Scenario.correct_of_delivered ];
    Table.add_row table [ "correct overall"; Table.cell_pct s.Scenario.correct_rate ];
    Table.add_row table [ "rounds"; Table.cell_i s.Scenario.rounds ];
    Table.add_row table [ "total broadcasts"; Table.cell_i s.Scenario.total_broadcasts ];
    Table.add_row table [ "mean completion round"; Table.cell_f ~decimals:0 s.Scenario.mean_completion_round ];
    Table.add_row table [ "hit round cap"; string_of_bool s.Scenario.hit_cap ];
    Table.print table
  in
  (* A deployment the radius leaves disconnected is a bad command line, not
     an internal error: exit 124 naming what is unreached and what to change. *)
  let run spec =
    match Scenario.run spec with
    | exception Scenario.Unreachable { unreachable; total } ->
      `Error
        ( true,
          Printf.sprintf
            "the source cannot reach %d of %d nodes; raise --radius or --nodes, or shrink --map"
            unreachable total )
    | result -> `Ok (print_summary result)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Simulate one authenticated broadcast and print its metrics.")
    Term.(ret (const run $ spec_term))

(* --- fig ---------------------------------------------------------------- *)

let jobs_arg =
  Arg.(
    value
    & opt (at_least_one "worker count") 1
    & info [ "j"; "jobs" ] ~docv:"N" ~doc:"Run trial cells on N worker domains.")

let scale_arg =
  Arg.(
    value
    & opt (enum [ ("quick", Experiment.Quick); ("paper", Experiment.Paper) ]) Experiment.Quick
    & info [ "scale" ] ~docv:"SCALE" ~doc:"Experiment scale: quick (the default) or paper.")

let fig_cmd =
  let csv_arg =
    Arg.(value & flag & info [ "csv" ] ~doc:"Emit tables as CSV instead of aligned text.")
  in
  let id_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"ID" ~doc:"Experiment id: e1..e8, a1..a5, bounds, mobile or all.")
  in
  let run scale csv jobs id =
    let show job =
      let outcome = Runner.run_job ~jobs ~scale job in
      if csv then print_string (Table.to_csv outcome.Runner.table)
      else print_string (Runner.render outcome)
    in
    let selected =
      match String.lowercase_ascii id with
      | "all" -> Some Registry.all
      | "e8" ->
        (* `e8` expands to the three Theorem 5 sweeps. *)
        Some
          (List.filter
             (fun job -> List.mem job.Experiment.id [ "e8a"; "e8b"; "e8c" ])
             Registry.all)
      | other -> Option.map (fun job -> [ job ]) (Registry.find other)
    in
    match selected with
    | Some jobs_list -> List.iter show jobs_list
    | None ->
      Printf.eprintf "unknown experiment id %s (known: %s)\n" id
        (String.concat " " Registry.ids);
      exit 1
  in
  Cmd.v
    (Cmd.info "fig" ~doc:"Regenerate a table/figure of the paper's evaluation.")
    Term.(const run $ scale_arg $ csv_arg $ jobs_arg $ id_arg)

(* --- bench --------------------------------------------------------------- *)

let bench_cmd =
  let only_arg =
    Arg.(
      value & opt_all string []
      & info [ "only" ] ~docv:"IDS"
          ~doc:"Run only these experiment ids (comma-separated, repeatable).")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) (Some "BENCH_results.json")
      & info [ "json" ] ~docv:"PATH" ~doc:"Where to write the JSON results file.")
  in
  let no_json_arg =
    Arg.(value & flag & info [ "no-json" ] ~doc:"Skip the JSON results file.")
  in
  let profile_arg =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:
            "Record per-experiment Gc allocation deltas and rounds-per-second into the \
             results JSON, where $(b,compare) gates the heap peak and the words per \
             active round.")
  in
  let run scale jobs only json_path no_json profile =
    let only = List.concat_map (String.split_on_char ',') only in
    let json_path = if no_json then None else json_path in
    match Bench.run { Bench.scale; jobs; only; json_path; profile } with
    | Ok _ -> ()
    | Error message ->
      prerr_endline message;
      exit 1
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Run the registered experiments (optionally domain-parallel) and write \
          the JSON results file.")
    Term.(const run $ scale_arg $ jobs_arg $ only_arg $ json_arg $ no_json_arg $ profile_arg)

(* --- compare ------------------------------------------------------------ *)

let compare_cmd =
  let file n docv =
    Arg.(required & pos n (some string) None & info [] ~docv ~doc:"A bench results file.")
  in
  let run base current =
    match Bench.compare ~base ~current with
    | Error message ->
      prerr_endline message;
      exit 2
    | Ok checks ->
      print_string (Bench.render checks);
      if List.exists (fun c -> c.Bench.verdict = Bench.Over) checks then exit 1
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:
         "Check a bench results file against a baseline one: wall time may grow 20% (runs \
          under 0.05 s on both sides are never flagged), the profiled heap peak 50% \
          (rounded up to 100 000 words) and the words per active round 20% (rounded up). \
          Exits 1 when a limit is exceeded.")
    Term.(const run $ file 0 "BASE" $ file 1 "CURRENT")

(* --- scale -------------------------------------------------------------- *)

let scale_cmd =
  let ints_conv = Arg.(list int) in
  let floats_conv = Arg.(list float) in
  let strings_conv = Arg.(list string) in
  let label_arg =
    Arg.(
      value
      & opt string Campaign.default.Campaign.label
      & info [ "label" ] ~docv:"NAME" ~doc:"Campaign label (archive subdirectory).")
  in
  let nodes_list_arg =
    Arg.(
      value
      & opt ints_conv Campaign.default.Campaign.node_counts
      & info [ "nodes" ] ~docv:"N,N,..." ~doc:"Node counts to sweep.")
  in
  let density_arg =
    Arg.(
      value
      & opt floats_conv Campaign.default.Campaign.densities
      & info [ "density" ] ~docv:"D,D,..." ~doc:"Target average degrees to sweep.")
  in
  let adversaries_arg =
    Arg.(
      value
      & opt strings_conv Campaign.default.Campaign.adversaries
      & info [ "adversaries" ] ~docv:"A,A,..."
          ~doc:
            (Printf.sprintf "Adversary mixes to sweep (known: %s)."
               (String.concat ", " Scale_sweep.known_adversaries)))
  in
  let classes_conv =
    Arg.(
      list
        (enum
           [ ("uniform", Scale_sweep.Uniform_radio); ("expander", Scale_sweep.Expander_synthetic) ]))
  in
  let classes_arg =
    Arg.(
      value
      & opt classes_conv Campaign.default.Campaign.classes
      & info [ "classes" ] ~docv:"C,C,..." ~doc:"Graph classes: uniform, expander.")
  in
  let warm_arg =
    Arg.(
      value
      & opt int Campaign.default.Campaign.warm
      & info [ "warm" ] ~docv:"K" ~doc:"Warm runs per cell on the cold run's topology.")
  in
  let cap_arg =
    Arg.(
      value
      & opt int Campaign.default.Campaign.cap
      & info [ "cap" ] ~docv:"ROUNDS" ~doc:"Engine round cap per run.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"DIR" ~doc:"Archive one JSON per run plus a manifest under DIR/label/.")
  in
  let mem_ceiling_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "mem-ceiling" ] ~docv:"MWORDS"
          ~doc:
            "Fail if the process's major-heap peak, read after each run, exceeds this many \
             million words. The reading is the peak so far, not the run's own: every run after \
             the largest reads the largest's peak.")
  in
  let dry_run_arg =
    Arg.(value & flag & info [ "dry-run" ] ~doc:"Print the planned runs and execute nothing.")
  in
  let run label nodes density adversaries classes protocol seed cap warm message out
      mem_ceiling dry_run =
    let config =
      {
        Campaign.label;
        node_counts = nodes;
        densities = density;
        adversaries;
        classes;
        protocol;
        seed;
        cap;
        warm;
        message;
        out_dir = out;
        mem_ceiling_words = Option.map (fun mw -> int_of_float (mw *. 1e6)) mem_ceiling;
        dry_run;
      }
    in
    match Campaign.run config with
    | Ok (_, failed) -> if failed then exit 1
    | Error message ->
      prerr_endline message;
      exit 2
  in
  Cmd.v
    (Cmd.info "scale"
       ~doc:
         "Run a scale campaign: sweep node count x density x adversary mix over uniform-radio \
          and expander graphs, with cold/warm runs and archived results.")
    Term.(
      const run $ label_arg $ nodes_list_arg $ density_arg $ adversaries_arg $ classes_arg
      $ protocol_arg $ seed_arg $ cap_arg $ warm_arg $ message_arg $ out_arg $ mem_ceiling_arg
      $ dry_run_arg)

(* --- topo --------------------------------------------------------------- *)

let topo_cmd =
  let run spec =
    (* Statistics, not delivery: the topology alone, with [Scenario.run]'s
       source, and no machines built.  A stranded node is exactly the kind
       of thing this command exists to report, so it never fails on one. *)
    let topology = Scenario.topology spec in
    let graph = Topology.graph topology in
    let deployment = Topology.deployment topology in
    let source = Deployment.center_node deployment in
    let table = Table.create ~title:"topology" ~columns:[ "metric"; "value" ] in
    Table.add_row table [ "nodes"; Table.cell_i (Topology.size topology) ];
    Table.add_row table [ "density"; Table.cell_f (Deployment.density deployment) ];
    Table.add_row table [ "average degree"; Table.cell_f (Graph.avg_degree graph) ];
    Table.add_row table [ "reachable from source"; Table.cell_i (Graph.reachable_from graph source) ];
    Table.add_row table [ "hop diameter (from source)"; Table.cell_i (Graph.hop_diameter_from graph source) ];
    (* The graph's own heap, rows and fan-out form together: about 2 words
       per link where the rows are symmetric and shared, 4 where the
       fan-out rows are a transposed copy. *)
    let links = graph.Graph.in_off.(Graph.size graph) in
    Table.add_row table [ "sensed links"; Table.cell_i links ];
    let words = Obj.reachable_words (Obj.repr graph) in
    Table.add_row table
      [
        "graph words per link";
        (if links = 0 then "-" else Table.cell_f (float_of_int words /. float_of_int links));
      ];
    Table.print table
  in
  Cmd.v
    (Cmd.info "topo" ~doc:"Print topology statistics for a deployment.")
    Term.(const run $ spec_term)

let () =
  let doc = "authenticated broadcast in radio networks (SPAA 2010 reproduction)" in
  let info = Cmd.info "securebit" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.group info [ run_cmd; fig_cmd; bench_cmd; compare_cmd; scale_cmd; topo_cmd ]))
