type config = {
  label : string;
  node_counts : int list;
  densities : float list;
  adversaries : string list;
  classes : Scale_sweep.klass list;
  protocol : Scenario.protocol;
  seed : int;
  cap : int;
  warm : int;
  message : string;
  out_dir : string option;
  mem_ceiling_words : int option;
  dry_run : bool;
}

(* A cell every machine can finish in seconds per run: the full sweep is
   the caller's to scale up (`--nodes 10000,100000 ...`). *)
let default =
  {
    label = "scale";
    node_counts = [ 1_000; 4_000 ];
    densities = [ 12.0; 40.0 ];
    adversaries = [ "honest"; "lying" ];
    classes = Scale_sweep.all_classes;
    protocol = Scenario.Neighbor_watch { votes = 1 };
    seed = 42;
    cap = 2_000_000;
    warm = 1;
    message = "1011";
    out_dir = None;
    mem_ceiling_words = None;
    dry_run = false;
  }

type phase = Cold | Warm of int

let phase_name = function Cold -> "cold" | Warm k -> Printf.sprintf "warm%d" k

type planned = { run_id : string; cell : Scale_sweep.cell; phase : phase }

let run_id_of (cell : Scale_sweep.cell) phase =
  Printf.sprintf "n%d-d%g-%s-%s-%s" cell.nodes cell.density cell.adversary
    (Scale_sweep.klass_name cell.klass) (phase_name phase)

(* The cell grid and geometry live in {!Scale_sweep}, shared with the
   registered S1 experiment, so a campaign run and the registry row of
   the same cell simulate the same spec. *)
let spec_of_cell config cell =
  let base =
    {
      Scenario.default with
      message = Bitvec.of_string config.message;
      protocol = config.protocol;
      cap = config.cap;
      seed = config.seed;
    }
  in
  Scale_sweep.spec_of_cell ~base cell

let validate config =
  if config.warm < 0 then Error "warm rounds must be >= 0"
  else if config.cap < 1 then Error "round cap must be >= 1"
  else if config.node_counts = [] || List.exists (fun n -> n <= 0) config.node_counts then
    Error "node counts must be a non-empty list of positive ints"
  else if config.densities = [] || List.exists (fun d -> d <= 0.0) config.densities then
    Error "densities must be a non-empty list of positive numbers"
  else if config.classes = [] then Error "at least one graph class"
  else begin
    match List.filter (fun a -> Scale_sweep.faults_of_adversary a = None) config.adversaries with
    | [] when config.adversaries <> [] -> Ok ()
    | [] -> Error "at least one adversary mix"
    | unknown ->
      Error
        (Printf.sprintf "unknown adversary mix%s: %s (known: %s)"
           (if List.length unknown > 1 then "es" else "")
           (String.concat ", " unknown)
           (String.concat " " Scale_sweep.known_adversaries))
  end

let cells config =
  Scale_sweep.cells ~classes:config.classes ~node_counts:config.node_counts
    ~densities:config.densities ~adversaries:config.adversaries

(* One cell's runs: a cold one followed by [warm] warm runs on the cold
   run's topology. *)
let runs_of_cell config cell =
  let phases = Cold :: List.init config.warm (fun k -> Warm (k + 1)) in
  List.map (fun phase -> { run_id = run_id_of cell phase; cell; phase }) phases

(* The full sweep in execution order: every (class, n, density, adversary)
   cell's runs.  [--dry-run] prints exactly this list, so the preview and
   a real invocation can never disagree (test_campaign holds them
   equal). *)
let plan config = List.concat_map (runs_of_cell config) (cells config)

type executed = {
  planned : planned;
  wall_seconds : float;
  topology_seconds : float;
  rounds : int;
  rounds_per_second : float;
  avg_degree : float;
  process_peak_heap_words : int;
  summary : Scenario.summary;
}

(* --- archived results --------------------------------------------------- *)

let rec mkdirs path =
  if path <> "" && path <> "." && path <> "/" && not (Sys.file_exists path) then begin
    mkdirs (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let json_of_executed config e =
  let s = e.summary in
  Json.Obj
    [
      ("schema", Json.String "securebit-campaign/2");
      ("run_id", Json.String e.planned.run_id);
      ("label", Json.String config.label);
      ("class", Json.String (Scale_sweep.klass_name e.planned.cell.klass));
      ("nodes", Json.Int e.planned.cell.nodes);
      ("density", Json.Float e.planned.cell.density);
      ("adversary", Json.String e.planned.cell.adversary);
      ("phase", Json.String (phase_name e.planned.phase));
      ("seed", Json.Int config.seed);
      ("wall_seconds", Json.Float e.wall_seconds);
      ("topology_seconds", Json.Float e.topology_seconds);
      ("rounds", Json.Int e.rounds);
      ("rounds_per_second", Json.Float e.rounds_per_second);
      ("avg_degree", Json.Float e.avg_degree);
      ("process_peak_heap_words", Json.Int e.process_peak_heap_words);
      ( "summary",
        Json.Obj
          [
            ("honest_nodes", Json.Int s.Scenario.honest_nodes);
            ("completion_rate", Json.Float s.Scenario.completion_rate);
            ("correct_rate", Json.Float s.Scenario.correct_rate);
            ("total_broadcasts", Json.Int s.Scenario.total_broadcasts);
            ("hit_cap", Json.String (string_of_bool s.Scenario.hit_cap));
          ] );
    ]

let write_json path json =
  let oc = open_out path in
  output_string oc (Json.to_string_pretty json);
  close_out oc

let archive config executed =
  Option.map
    (fun out_dir ->
      let dir = Filename.concat out_dir config.label in
      mkdirs dir;
      List.iter
        (fun e ->
          write_json (Filename.concat dir (e.planned.run_id ^ ".json")) (json_of_executed config e))
        executed;
      let manifest =
        Json.Obj
          [
            ("schema", Json.String "securebit-campaign-manifest/1");
            ("label", Json.String config.label);
            ("runs", Json.List (List.map (fun e -> Json.String e.planned.run_id) executed));
          ]
      in
      write_json (Filename.concat dir "manifest.json") manifest;
      dir)
    config.out_dir

(* --- execution ---------------------------------------------------------- *)

(* One cell: a cold run (builds the deployment and topology, timed on
   their own) then [warm] runs reusing the cold topology, so the cold/warm
   delta isolates the set-up cost from the steady-state engine rate.  The
   cold run's wall time includes the build. *)
let execute_cell config cell plans =
  let spec = spec_of_cell config cell in
  let t0 = Unix.gettimeofday () in
  let topology = Scenario.topology spec in
  let build_seconds = Unix.gettimeofday () -. t0 in
  List.map
    (fun planned ->
      let topology_seconds = match planned.phase with Cold -> build_seconds | Warm _ -> 0.0 in
      let t0 = Unix.gettimeofday () in
      let result = Scenario.run ~mode:`Sparse ~topology spec in
      let wall_seconds = Unix.gettimeofday () -. t0 +. topology_seconds in
      let summary = Scenario.summarize result in
      (* The process's major-heap peak so far, not this run's: OCaml never
         returns major-heap memory, so one process cannot read a later,
         smaller run's own peak. *)
      let process_peak_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
      {
        planned;
        wall_seconds;
        topology_seconds;
        rounds = summary.Scenario.rounds;
        rounds_per_second =
          (if wall_seconds > 0.0 then float_of_int summary.Scenario.rounds /. wall_seconds
           else 0.0);
        avg_degree = Graph.avg_degree (Topology.graph result.Scenario.topology);
        process_peak_heap_words;
        summary;
      })
    plans

let render executed =
  let table =
    Table.create ~title:"scale campaign"
      ~columns:
        [
          "run";
          "deg";
          "rounds";
          "wall (s)";
          "topo (s)";
          "rounds/s";
          "process peak (Mw)";
          "delivered";
          "correct";
        ]
  in
  List.iter
    (fun e ->
      Table.add_row table
        [
          e.planned.run_id;
          Table.cell_f ~decimals:1 e.avg_degree;
          Table.cell_i e.rounds;
          Table.cell_f ~decimals:2 e.wall_seconds;
          Table.cell_f ~decimals:3 e.topology_seconds;
          Table.cell_f ~decimals:0 e.rounds_per_second;
          Table.cell_f ~decimals:1 (float_of_int e.process_peak_heap_words /. 1e6);
          Table.cell_pct e.summary.Scenario.completion_rate;
          Table.cell_pct e.summary.Scenario.correct_rate;
        ])
    executed;
  Table.render table

let render_plan config plans =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "campaign %s: %d runs (seed=%d, warm=%d%s)\n" config.label
       (List.length plans) config.seed config.warm
       (match config.out_dir with
       | Some d -> Printf.sprintf ", out=%s" (Filename.concat d config.label)
       | None -> ""));
  List.iter (fun p -> Buffer.add_string buf ("  " ^ p.run_id ^ "\n")) plans;
  Buffer.contents buf

let run config =
  match validate config with
  | Error message -> Error message
  | Ok () ->
    print_string (render_plan config (plan config));
    if config.dry_run then Ok ([], false)
    else begin
      let executed =
        List.concat_map
          (fun cell ->
            let executed = execute_cell config cell (runs_of_cell config cell) in
            List.iter
              (fun e ->
                Printf.printf "[%s: %d rounds, %.2fs, %.1fM process-peak words]\n%!"
                  e.planned.run_id e.rounds e.wall_seconds
                  (float_of_int e.process_peak_heap_words /. 1e6))
              executed;
            executed)
          (cells config)
      in
      print_string (render executed);
      Option.iter (Printf.printf "results archived to %s\n%!") (archive config executed);
      let over_ceiling =
        match config.mem_ceiling_words with
        | None -> []
        | Some ceiling -> List.filter (fun e -> e.process_peak_heap_words > ceiling) executed
      in
      List.iter
        (fun e ->
          Printf.printf "OVER CEILING: the process peaked at %d words by the end of %s (ceiling %d)\n"
            e.process_peak_heap_words e.planned.run_id
            (Option.get config.mem_ceiling_words))
        over_ceiling;
      Ok (executed, over_ceiling <> [])
    end
