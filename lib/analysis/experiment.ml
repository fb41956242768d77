type config = { repetitions : int; base_seed : int }

let quick = { repetitions = 3; base_seed = 1000 }
let paper = { repetitions = 6; base_seed = 1000 }

let seeds config = List.init config.repetitions (fun i -> config.base_seed + (7919 * i))

type work = { rounds : int; active_rounds : int }

let no_work = { rounds = 0; active_rounds = 0 }

let add_work a b =
  { rounds = a.rounds + b.rounds; active_rounds = a.active_rounds + b.active_rounds }

let engine_work (e : Engine.result) =
  { rounds = e.Engine.rounds_used; active_rounds = e.Engine.active_rounds }

let trials config spec =
  List.map
    (fun seed () ->
      let result = Scenario.run { spec with Scenario.seed } in
      (Scenario.summarize result, engine_work result.Scenario.engine))
    (seeds config)

type aggregate = {
  completion_rate : float;
  correct_of_delivered : float;
  correct_rate : float;
  rounds : float;
  broadcasts : float;
  runs : int;
}

let aggregate summaries =
  let f sel = List.map sel summaries in
  let trimmed_mean sel = Stats.mean (Stats.trimmed (f sel)) in
  {
    completion_rate = Stats.mean (f (fun s -> s.Scenario.completion_rate));
    correct_of_delivered = Stats.mean (f (fun s -> s.Scenario.correct_of_delivered));
    correct_rate = Stats.mean (f (fun s -> s.Scenario.correct_rate));
    rounds = trimmed_mean (fun s -> float_of_int s.Scenario.rounds);
    broadcasts = trimmed_mean (fun s -> float_of_int s.Scenario.total_broadcasts);
    runs = List.length summaries;
  }

let json_of_aggregate a =
  Json.Obj
    [
      ("completion_rate", Json.Float a.completion_rate);
      ("correct_of_delivered", Json.Float a.correct_of_delivered);
      ("correct_rate", Json.Float a.correct_rate);
      ("rounds", Json.Float a.rounds);
      ("broadcasts", Json.Float a.broadcasts);
      ("runs", Json.Int a.runs);
    ]

(* ------------------------------------------------------------------ *)
(* Declarative experiments                                            *)
(* ------------------------------------------------------------------ *)

type scale = Quick | Paper

let config_of_scale = function Quick -> quick | Paper -> paper

type row = {
  cells : string list;
  points : (string * (float * float)) list;
  values : (string * Json.t) list;
  aggregates : aggregate list;
}

let row ?(points = []) ?(values = []) cells = { cells; points; values; aggregates = [] }

type cell = Cell : { trials : (unit -> 'a * work) list; render : 'a list -> row } -> cell

(* The trials run spec-major, seed-minor, so each spec's summaries are
   [repetitions] consecutive results. *)
let grid config specs render =
  let per_spec = config.repetitions in
  let render summaries =
    let summaries = Array.of_list summaries in
    let aggregates =
      List.mapi
        (fun k _ -> aggregate (Array.to_list (Array.sub summaries (k * per_spec) per_spec)))
        specs
    in
    { (render aggregates) with aggregates }
  in
  Cell { trials = List.concat_map (trials config) specs; render }

let grid1 config spec render =
  grid config [ spec ] (function [ a ] -> render a | _ -> invalid_arg "Experiment.grid1")

let grid2 config spec_a spec_b render =
  grid config [ spec_a; spec_b ] (function
    | [ a; b ] -> render a b
    | _ -> invalid_arg "Experiment.grid2")

let single trial render =
  let render = function [ r ] -> render r | _ -> invalid_arg "Experiment.single" in
  Cell { trials = [ trial ]; render }

let const row = Cell { trials = []; render = (fun _ -> row) }

type job = {
  id : string;
  title : string;
  columns : string list;
  cells : scale -> cell list;
  fits : (string * string) list;
  notes : fits:(string * Stats.fit) list -> series:(string -> (float * float) list) -> string list;
}

let job ?(fits = []) ?(notes = fun ~fits:_ ~series:_ -> []) ~id ~title ~columns cells =
  { id; title; columns; cells; fits; notes }
