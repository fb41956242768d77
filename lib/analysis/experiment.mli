(** Repetition harness and the declarative experiment model.

    The paper repeats each experiment 6–20 times with outliers discarded
    (Section 6, "Methodology"); the first half of this module expands a
    scenario across seeds and aggregates the per-run summaries the same
    way.

    The second half defines experiments as data: a {!job} is a list of
    {!cell}s, one per table row, each a list of independent trials plus a
    render over their results, registered under a stable id in
    {!Registry}.  Jobs are pure descriptions — {!Runner} (in [lib/run])
    executes every trial, possibly on a domain pool, and renders the rows
    in cell order. *)

type config = { repetitions : int; base_seed : int }

val quick : config
(** 3 repetitions — the scaled-down default of the benchmark harness. *)

val paper : config
(** 6 repetitions, as in most of the paper's experiments. *)

val seeds : config -> int list

type work = { rounds : int; active_rounds : int }
(** The engine work a trial did: executed rounds and transmission-carrying
    rounds, summed over its engine runs ({!Engine.result}). *)

val no_work : work
val add_work : work -> work -> work

val engine_work : Engine.result -> work

val trials : config -> Scenario.spec -> (unit -> Scenario.summary * work) list
(** One trial per seed of [config] ([spec.seed] replaced), in seed order. *)

type aggregate = {
  completion_rate : float;
  correct_of_delivered : float;
  correct_rate : float;
  rounds : float;  (** outlier-trimmed mean over runs *)
  broadcasts : float;  (** outlier-trimmed mean over runs *)
  runs : int;
}

val aggregate : Scenario.summary list -> aggregate
val json_of_aggregate : aggregate -> Json.t

(** {1 Declarative experiments} *)

type scale = Quick | Paper
(** [Quick] is the scaled-down configuration sized so the whole suite
    completes in minutes; [Paper] reproduces the paper's parameters. *)

val config_of_scale : scale -> config

type row = {
  cells : string list;  (** rendered table cells, one per job column *)
  points : (string * (float * float)) list;
      (** contributions to named fit series, e.g. [("budget", (b, rounds))] *)
  values : (string * Json.t) list;
      (** extra machine-readable metrics carried into the JSON results *)
  aggregates : aggregate list;  (** one per spec on {!grid1}/{!grid2} rows, else empty *)
}

val row :
  ?points:(string * (float * float)) list -> ?values:(string * Json.t) list -> string list -> row

(** One table row: independent trials the runner may execute on any
    worker, each returning its result and its engine work, and a render
    over the results in trial order.  A trial must derive all its
    randomness from seeds it owns. *)
type cell = Cell : { trials : (unit -> 'a * work) list; render : 'a list -> row } -> cell

val grid1 : config -> Scenario.spec -> (aggregate -> row) -> cell
(** The spec run once per seed of [config]; [render] receives the
    aggregate, and the row carries it. *)

val grid2 : config -> Scenario.spec -> Scenario.spec -> (aggregate -> aggregate -> row) -> cell
(** {!grid1} over two specs: [render] receives their aggregates in
    order. *)

val single : (unit -> 'a * work) -> ('a -> row) -> cell
(** One trial of arbitrary code (an adaptive scan, a composite run). *)

val const : row -> cell
(** A row with no trial (analytic tables). *)

type job = {
  id : string;  (** stable experiment id, lowercase (["e1"], ["a4"], …) *)
  title : string;  (** printed table title *)
  columns : string list;
  cells : scale -> cell list;  (** one cell per table row *)
  fits : (string * string) list;
      (** derived linear fits: (printed label, point-series name) *)
  notes :
    fits:(string * Stats.fit) list -> series:(string -> (float * float) list) -> string list;
      (** extra printed lines, given the computed fits and point series *)
}

val job :
  ?fits:(string * string) list ->
  ?notes:
    (fits:(string * Stats.fit) list -> series:(string -> (float * float) list) -> string list) ->
  id:string ->
  title:string ->
  columns:string list ->
  (scale -> cell list) ->
  job
(** Smart constructor; [fits] and [notes] default to empty. *)
