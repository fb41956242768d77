(* Benchmark harness.

   Running this executable:

   1. executes every registered experiment — the paper's tables and
      figures (Section 6), the Theorem 5 running-time sweeps, and the
      DESIGN.md ablations — at Quick scale by default, or at the paper's
      parameters with `--scale paper` (MultiPathRB at paper scale is very
      slow, exactly as the paper reports); `--jobs N` runs the trial cells
      on N domains with output byte-identical to `--jobs 1`;
   2. writes the structured results (per-experiment wall time, rows,
      aggregates, fit slopes) to BENCH_results.json (`--json PATH` to
      move it);
   3. runs a Bechamel microbenchmark suite with one [Test.make] per
      experiment id (a miniature instance of that table's inner
      simulation) and one per protocol primitive (skipped when `--only`
      narrows the run or `--no-micro` is given).

   Perf-regression mode:

     bench/main.exe compare BASE.json [CURRENT.json]

   diffs two results files (CURRENT defaults to BENCH_results.json),
   prints per-experiment speedups, and exits 1 when any experiment is
   more than 20% slower than the baseline.  `--compare BASE.json` does
   the same against the freshly produced results after a normal run.
   The committed BENCH_baseline.json (quick scale, --jobs 1) is the
   baseline the @ci alias compares against. *)

open Bechamel
open Toolkit

let tiny_spec protocol =
  {
    Scenario.default with
    map_w = 8.0;
    map_h = 8.0;
    deployment = Scenario.Uniform 80;
    radius = 3.0;
    message = Bitvec.of_string "101";
    protocol;
    heard_relay_limit = Some 4;
  }

let run_spec spec = ignore (Scenario.summarize (Scenario.run spec))

(* One kernel per experiment id: a miniature instance of the simulation at
   the heart of that table/figure. *)
let experiment_kernels =
  [
    ( "E1.fig5-crash",
      fun () ->
        run_spec
          { (tiny_spec (Scenario.Neighbor_watch { votes = 1 })) with
            deployment = Scenario.Uniform 60 } );
    ( "E2.jamming",
      fun () ->
        run_spec
          { (tiny_spec (Scenario.Neighbor_watch { votes = 1 })) with
            faults = Scenario.Jamming { fraction = 0.1; budget = 20; probability = 0.2 } } );
    ( "E3.fig6-lying",
      fun () ->
        run_spec
          { (tiny_spec (Scenario.Neighbor_watch { votes = 1 })) with
            faults = Scenario.Lying 0.05 } );
    ( "E4.fig7-density",
      fun () ->
        run_spec
          { (tiny_spec (Scenario.Neighbor_watch { votes = 2 })) with
            faults = Scenario.Lying 0.05 } );
    ( "E5.clustered",
      fun () ->
        run_spec
          { (tiny_spec (Scenario.Neighbor_watch { votes = 1 })) with
            deployment = Scenario.Clustered { n = 80; clusters = 4; stddev = 1.5 } } );
    ( "E6.mapsize",
      fun () ->
        run_spec
          { (tiny_spec (Scenario.Neighbor_watch { votes = 1 })) with
            message = Bitvec.of_string "10110" } );
    ("E7.epidemic", fun () -> run_spec (tiny_spec Scenario.Epidemic));
    ( "E8.theory-grid",
      fun () ->
        run_spec
          {
            (tiny_spec (Scenario.Neighbor_watch { votes = 1 })) with
            deployment = Scenario.Grid;
            radio = Scenario.Disk_linf;
            radius = 2.0;
            square_side = Some 1.0;
          } );
    ( "MP.multipath",
      fun () ->
        run_spec
          {
            (tiny_spec (Scenario.Multi_path { tolerance = 1 })) with
            map_w = 6.0;
            map_h = 6.0;
            deployment = Scenario.Uniform 40;
            radius = 2.0;
            message = Bitvec.of_string "10";
          } );
    ( "G1.graphs",
      fun () ->
        run_spec
          {
            (tiny_spec (Scenario.Multi_path { tolerance = 1 })) with
            deployment = Scenario.Grid_holes { width = 8; height = 6; holes = 5 };
            message = Bitvec.of_string "10";
          } );
  ]

(* Protocol primitives, benchmarked in isolation. *)
let primitive_kernels =
  let payload = Bitvec.random (Rng.create 99) 256 in
  [
    ( "prim.two-bit-exchange",
      fun () ->
        let sender = Two_bit.Sender.create ~b1:true ~b2:false in
        let receiver = Two_bit.Receiver.create () in
        for phase = 0 to 5 do
          let s_tx = Two_bit.Sender.act sender ~phase in
          let r_tx = Two_bit.Receiver.act receiver ~phase in
          Two_bit.Sender.observe sender ~phase ~activity:r_tx;
          Two_bit.Receiver.observe receiver ~phase ~activity:s_tx
        done;
        ignore (Two_bit.Sender.outcome sender);
        ignore (Two_bit.Receiver.outcome receiver) );
    ( "prim.one-hop-64bit-stream",
      fun () ->
        let sender = One_hop.Sender.create () in
        let receiver = One_hop.Receiver.create () in
        for i = 0 to 63 do
          One_hop.Sender.push sender (i land 3 = 1)
        done;
        while One_hop.Sender.has_current sender do
          let parity, data = One_hop.Sender.current sender in
          One_hop.Receiver.push_two_bit receiver ~parity ~data;
          One_hop.Sender.advance sender
        done );
    ( "prim.voting-quorum-30",
      let items =
        List.init 30 (fun i ->
            {
              Voting.origin = (i, 2 * i);
              value = true;
              points = [ Point.make (float_of_int (i mod 7)) (float_of_int (i mod 5)) ];
            })
      in
      fun () -> ignore (Voting.quorum ~radius:4.0 ~need:8 ~value:true items) );
    ( "prim.frame-roundtrip",
      let codec = Frame.codec ~msg_len:16 ~coord_range:8.0 ~coord_step:0.5 in
      fun () ->
        let frame = Frame.Heard { index = 7; value = true; cause = (3, -2) } in
        match Frame.decode codec (Frame.encode codec frame) with
        | Some _ -> ()
        | None -> assert false );
    ("prim.digest-256bit", fun () -> ignore (Bitvec.digest ~size:8 payload));
  ]

let tests =
  List.map
    (fun (name, f) -> Test.make ~name (Staged.stage f))
    (experiment_kernels @ primitive_kernels)

let microbenchmarks () =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:30 ~quota:(Time.second 0.4) ~kde:None ~sampling:(`Linear 1)
      ~stabilize:false ()
  in
  let table =
    Table.create ~title:"Bechamel microbenchmarks (OLS time per run)"
      ~columns:[ "kernel"; "time/run"; "r2" ]
  in
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg instances test in
      let results = Analyze.all ols (List.hd instances) raw in
      (* Rows in kernel-name order, not unspecified hash order: the table
         feeds BENCH_results.json comparisons and must be stable. *)
      let rows =
        List.sort
          (fun (a, _) (b, _) -> String.compare a b)
          (Hashtbl.fold (fun name r acc -> (name, r) :: acc) results [])
      in
      List.iter
        (fun (name, ols_result) ->
          let time_cell =
            match Analyze.OLS.estimates ols_result with
            | Some (ns :: _) ->
              if ns >= 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
              else if ns >= 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
              else if ns >= 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
              else Printf.sprintf "%.0f ns" ns
            | Some [] | None -> "n/a"
          in
          let r2_cell =
            match Analyze.OLS.r_square ols_result with
            | Some r2 -> Printf.sprintf "%.3f" r2
            | None -> "-"
          in
          Table.add_row table [ name; time_cell; r2_cell ])
        rows)
    tests;
  Table.print table

(* Print a comparison report and turn regressions into exit code 1. *)
let finish_compare = function
  | Error message ->
    prerr_endline message;
    exit 2
  | Ok (report, any_regression) ->
    print_string report;
    if any_regression then exit 1

let () =
  let options = ref { (Bench.default_options ()) with json_path = Some "BENCH_results.json" } in
  let compare_base = ref None in
  let no_micro = ref false in
  let campaign = ref Campaign.default in
  let anons = ref [] in
  let set_scale s =
    match String.lowercase_ascii s with
    | "quick" -> options := { !options with scale = Experiment.Quick }
    | "paper" -> options := { !options with scale = Experiment.Paper }
    | other -> raise (Arg.Bad (Printf.sprintf "--scale %s (expected quick or paper)" other))
  in
  let add_only ids =
    options :=
      { !options with only = !options.only @ String.split_on_char ',' ids }
  in
  let speclist =
    [
      ( "--scale",
        Arg.String set_scale,
        "SCALE  quick (default) or paper; overrides the deprecated FULL=1 env var" );
      ("--jobs", Arg.Int (fun n -> options := { !options with jobs = n }), "N  worker domains");
      ( "--only",
        Arg.String add_only,
        "IDS  comma-separated experiment ids to run (also skips microbenchmarks)" );
      ( "--json",
        Arg.String (fun p -> options := { !options with json_path = Some p }),
        "PATH  results file (default BENCH_results.json)" );
      ("--no-json", Arg.Unit (fun () -> options := { !options with json_path = None }), " skip the results file");
      ("--no-micro", Arg.Set no_micro, " skip the Bechamel microbenchmark suite");
      ( "--profile",
        Arg.Unit (fun () -> options := { !options with profile = true }),
        " record per-experiment Gc allocation deltas and rounds/s (plus per-worker stats) into \
         the results JSON (ignored by compare)" );
      ( "--sanitize",
        Arg.Unit (fun () -> options := { !options with sanitize = true }),
        " re-run each experiment's trials sequentially and fail on any divergence from the \
         parallel results (dynamic --jobs N determinism check; no-op at --jobs 1)" );
      ( "--compare",
        Arg.String (fun p -> compare_base := Some p),
        "BASE.json  after the run, diff wall times against this baseline; exit 1 on a >20% \
         regression" );
      (* `scale` campaign options (ignored without the scale subcommand). *)
      ( "--nodes",
        Arg.String
          (fun s ->
            campaign :=
              { !campaign with
                Campaign.node_counts = List.map int_of_string (String.split_on_char ',' s) }),
        "N,N,...  (scale) node counts to sweep" );
      ( "--density",
        Arg.String
          (fun s ->
            campaign :=
              { !campaign with
                Campaign.densities = List.map float_of_string (String.split_on_char ',' s) }),
        "D,D,...  (scale) target average degrees to sweep" );
      ( "--adversaries",
        Arg.String
          (fun s ->
            campaign := { !campaign with Campaign.adversaries = String.split_on_char ',' s }),
        "A,A,...  (scale) adversary mixes: honest, crash, lying, jam" );
      ( "--classes",
        Arg.String
          (fun s ->
            campaign :=
              { !campaign with
                Campaign.classes =
                  List.map
                    (function
                      | "uniform" -> Campaign.Uniform_radio
                      | "expander" -> Campaign.Expander_synthetic
                      | other ->
                        raise (Arg.Bad (Printf.sprintf "--classes %s (expected uniform or expander)" other)))
                    (String.split_on_char ',' s) }),
        "C,C,...  (scale) graph classes: uniform, expander" );
      ( "--warm",
        Arg.Int (fun k -> campaign := { !campaign with Campaign.warm = k }),
        "K  (scale) warm runs per cell on the cold run's topology" );
      ( "--label",
        Arg.String (fun l -> campaign := { !campaign with Campaign.label = l }),
        "NAME  (scale) campaign label / archive subdirectory" );
      ( "--out",
        Arg.String (fun d -> campaign := { !campaign with Campaign.out_dir = Some d }),
        "DIR  (scale) archive one JSON per run plus a manifest under DIR/label/" );
      ( "--mem-ceiling",
        Arg.Float
          (fun mw ->
            campaign :=
              { !campaign with Campaign.mem_ceiling_words = Some (int_of_float (mw *. 1e6)) }),
        "MWORDS  (scale) fail if any run peaks above this many million heap words" );
      ( "--dry-run",
        Arg.Unit (fun () -> campaign := { !campaign with Campaign.dry_run = true }),
        " (scale) print the planned runs and execute nothing" );
    ]
  in
  Arg.parse speclist
    (fun anon -> anons := !anons @ [ anon ])
    "bench/main.exe [--scale quick|paper] [--jobs N] [--only e1,e2,...] [--json PATH]\n\
     bench/main.exe compare BASE.json [CURRENT.json]\n\
     bench/main.exe scale [--nodes N,N] [--density D,D] [--warm K] [--dry-run] ...";
  match !anons with
  | [ "scale" ] -> (
    match Campaign.run !campaign with
    | Ok (_, failed) -> if failed then exit 1
    | Error message ->
      prerr_endline message;
      exit 2)
  | "scale" :: _ ->
    prerr_endline "scale takes no further positional arguments";
    exit 2
  | [ "compare"; base ] ->
    finish_compare (Bench.compare_files ~base ~current:"BENCH_results.json" ())
  | [ "compare"; base; current ] -> finish_compare (Bench.compare_files ~base ~current ())
  | "compare" :: _ ->
    prerr_endline "compare takes a baseline file and an optional current file";
    exit 2
  | anon :: _ ->
    prerr_endline (Printf.sprintf "unexpected argument %s" anon);
    exit 2
  | [] -> (
    let t0 = Unix.gettimeofday () in
    match Bench.run !options with
    | Error message ->
      prerr_endline message;
      exit 2
    | Ok outcomes ->
      if !options.only = [] && not !no_micro then microbenchmarks ();
      Printf.printf "\ntotal wall time: %.1fs\n%!" (Unix.gettimeofday () -. t0);
      Option.iter
        (fun base -> finish_compare (Bench.compare_outcomes ~base outcomes))
        !compare_base)
