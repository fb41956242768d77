type profile = {
  minor_words : float;
  major_words : float;
  promoted_words : float;
  top_heap_words : int;
  rounds_simulated : int;
  rounds_per_second : float;
  active_rounds : int;
  words_per_active_round : float;
  workers : Pool.worker_stat list;
}

type outcome = {
  job : Experiment.job;
  scale : Experiment.scale;
  table : Table.t;
  rows : Experiment.row list;
  fits : (string * Stats.fit) list;
  notes : string list;
  wall_seconds : float;
  profile : profile option;
}

(* A cell's trials as tasks that store each result in the cell's slot for
   it and return the trial's work, and the render over the filled slots.
   Every slot has one writer, and the pool joins every domain before the
   renders read them. *)
let prepare (Experiment.Cell { trials; render }) =
  let slots = Array.make (List.length trials) None in
  let task i trial () =
    let result, work = trial () in
    slots.(i) <- Some result;
    work
  in
  (List.mapi task trials, fun () -> render (List.map Option.get (Array.to_list slots)))

(* Map every trial of the job over the pool, then render strictly in cell
   order — so the output is byte-identical whatever [jobs] is. *)
let run_job ?(jobs = 1) ?(profile = false) ~scale (job : Experiment.job) =
  let gc0 = if profile then Some (Gc.quick_stat ()) else None in
  let minor0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let cells = List.map prepare (job.Experiment.cells scale) in
  let tasks = Array.of_list (List.concat_map fst cells) in
  let works, workers = Pool.map_array_stats ~jobs (fun task -> task ()) tasks in
  let rows = List.map (fun (_, render) -> render ()) cells in
  let table = Table.create ~title:job.Experiment.title ~columns:job.Experiment.columns in
  List.iter (fun (row : Experiment.row) -> Table.add_row table row.Experiment.cells) rows;
  let all_points = List.concat_map (fun (row : Experiment.row) -> row.Experiment.points) rows in
  let series name =
    List.filter_map (fun (n, point) -> if n = name then Some point else None) all_points
  in
  let fits =
    List.map (fun (label, name) -> (label, Stats.linear_fit (series name))) job.Experiment.fits
  in
  let notes = job.Experiment.notes ~fits ~series in
  let wall_seconds = Unix.gettimeofday () -. t0 in
  let profile =
    (* Top-level allocation deltas are the coordinating domain's (exact
       at --jobs 1, coordinator-only above that): minor words from
       [Gc.minor_words], which counts the current minor heap too, the rest
       from [Gc.quick_stat]; [workers] carries exact per-domain deltas
       from the pool.  Rounds/s divides the engine rounds every trial
       reported by the job's wall time. *)
    Option.map
      (fun g0 ->
        let minor_words = Gc.minor_words () -. minor0 in
        let g1 = Gc.quick_stat () in
        let { Experiment.rounds = rounds_simulated; active_rounds } =
          Array.fold_left Experiment.add_work Experiment.no_work works
        in
        {
          minor_words;
          major_words = g1.Gc.major_words -. g0.Gc.major_words;
          promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
          (* Process-lifetime peak, monotone across jobs of one process:
             comparable against a baseline only when both runs execute the
             same jobs in the same order, which the registry guarantees. *)
          top_heap_words = g1.Gc.top_heap_words;
          rounds_simulated;
          rounds_per_second =
            (if wall_seconds > 0.0 then float_of_int rounds_simulated /. wall_seconds else 0.0);
          active_rounds;
          (* Allocation rate of the hot loop: coordinator minor words over
             transmission-carrying rounds (exact at --jobs 1, like the
             other top-level deltas); [Bench.gates] holds its limit. *)
          words_per_active_round =
            (if active_rounds > 0 then minor_words /. float_of_int active_rounds else 0.0);
          workers;
        })
      gc0
  in
  { job; scale; table; rows; fits; notes; wall_seconds; profile }

let render outcome =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Table.render outcome.table);
  List.iter
    (fun (label, fit) ->
      Buffer.add_string buf
        (Printf.sprintf "%s: slope = %.2f, intercept = %.1f, r2 = %.3f\n" label fit.Stats.slope
           fit.Stats.intercept fit.Stats.r2))
    outcome.fits;
  List.iter (fun note -> Buffer.add_string buf (note ^ "\n")) outcome.notes;
  Buffer.contents buf

let json_of_row columns (row : Experiment.row) =
  let cells =
    Json.Obj (List.map2 (fun column cell -> (column, Json.String cell)) columns row.Experiment.cells)
  in
  Json.Obj
    ([ ("cells", cells) ]
    @ (match row.Experiment.aggregates with
      | [] -> []
      | aggs -> [ ("aggregates", Json.List (List.map Experiment.json_of_aggregate aggs)) ])
    @ match row.Experiment.values with [] -> [] | vs -> [ ("values", Json.Obj vs) ])

let json_of_fit (label, fit) =
  Json.Obj
    [
      ("label", Json.String label);
      ("slope", Json.Float fit.Stats.slope);
      ("intercept", Json.Float fit.Stats.intercept);
      ("r2", Json.Float fit.Stats.r2);
    ]

(* The [wall_seconds] field is the only non-deterministic part of the
   record; [stable_json] omits it so `--jobs N` output can be compared
   byte-for-byte against `--jobs 1`. *)
let stable_json outcome =
  let job = outcome.job in
  Json.Obj
    [
      ("id", Json.String job.Experiment.id);
      ("title", Json.String job.Experiment.title);
      ("columns", Json.List (List.map (fun c -> Json.String c) job.Experiment.columns));
      ("rows", Json.List (List.map (json_of_row job.Experiment.columns) outcome.rows));
      ("fits", Json.List (List.map json_of_fit outcome.fits));
      ("notes", Json.List (List.map (fun n -> Json.String n) outcome.notes));
    ]

let json_of_worker (w : Pool.worker_stat) =
  Json.Obj
    [
      ("domain", Json.Int w.Pool.domain_index);
      ("tasks_run", Json.Int w.Pool.tasks_run);
      ("minor_words", Json.Float w.Pool.minor_words);
      ("major_words", Json.Float w.Pool.major_words);
      ("promoted_words", Json.Float w.Pool.promoted_words);
      ("top_heap_words", Json.Int w.Pool.top_heap_words);
    ]

let json_of_profile p =
  Json.Obj
    [
      ("minor_words", Json.Float p.minor_words);
      ("major_words", Json.Float p.major_words);
      ("promoted_words", Json.Float p.promoted_words);
      ("top_heap_words", Json.Int p.top_heap_words);
      ("rounds_simulated", Json.Int p.rounds_simulated);
      ("rounds_per_second", Json.Float p.rounds_per_second);
      ("active_rounds", Json.Int p.active_rounds);
      ("words_per_active_round", Json.Float p.words_per_active_round);
      ("workers", Json.List (List.map json_of_worker p.workers));
    ]

let json_of_outcome outcome =
  match stable_json outcome with
  | Json.Obj fields ->
    Json.Obj
      (fields
      @ [ ("wall_seconds", Json.Float outcome.wall_seconds) ]
      @
      match outcome.profile with
      | Some p -> [ ("profile", json_of_profile p) ]
      | None -> [])
  | other -> other

let results_json ~scale ~jobs outcomes =
  Json.Obj
    [
      ("schema", Json.String "securebit-bench/1");
      ( "scale",
        Json.String (match scale with Experiment.Quick -> "quick" | Experiment.Paper -> "paper") );
      ("jobs", Json.Int jobs);
      ( "total_wall_seconds",
        Json.Float (List.fold_left (fun acc o -> acc +. o.wall_seconds) 0.0 outcomes) );
      ("experiments", Json.List (List.map json_of_outcome outcomes));
    ]
