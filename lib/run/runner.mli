(** Executes declarative {!Experiment.job}s, optionally on a domain pool.

    Every trial of every cell of a job goes to {!Pool}, which distributes
    them over [jobs] domains; each cell then renders its row from its own
    trials' results, in cell order, so tables, fits and notes are
    byte-identical for every [jobs] value. *)

type profile = {
  minor_words : float;  (** minor-heap words allocated while the job ran *)
  major_words : float;
  promoted_words : float;
  top_heap_words : int;
      (** process-lifetime major-heap high-water mark ({!Gc.quick_stat})
          when the job finished — monotone across the jobs of one run, so
          per-job values compare against a baseline only when both runs
          execute the same jobs in the same order (the registry order);
          {!Bench.gates} holds its limit *)
  rounds_simulated : int;  (** engine rounds across the job's trials *)
  rounds_per_second : float;  (** rounds_simulated / wall_seconds *)
  active_rounds : int;
      (** transmission-carrying engine rounds across the job's trials
          (mode-independent — see {!Engine.result}) *)
  words_per_active_round : float;
      (** [minor_words / active_rounds] (0 when no active rounds): the
          hot-loop allocation rate; {!Bench.gates} holds its limit *)
  workers : Pool.worker_stat list;
      (** one entry per pool domain: tasks run and exact per-domain GC
          deltas *)
}
(** Cheap per-job performance counters (top-level fields are deltas on
    the coordinating domain — [minor_words] from {!Gc.minor_words}, the
    rest from {!Gc.quick_stat} — exact at [--jobs 1], coordinator-only
    above that; [workers] is exact on every domain). *)

type outcome = {
  job : Experiment.job;
  scale : Experiment.scale;
  table : Table.t;
  rows : Experiment.row list;  (** one per cell, in cell order *)
  fits : (string * Stats.fit) list;
  notes : string list;
  wall_seconds : float;
  profile : profile option;  (** [Some] iff requested via [run_job ~profile:true] *)
}

val run_job : ?jobs:int -> ?profile:bool -> scale:Experiment.scale -> Experiment.job -> outcome
(** Execute every trial of the job ([jobs] defaults to 1 = sequential;
    [profile] defaults to false — when set, the outcome carries allocation
    and rounds-per-second counters). *)

val render : outcome -> string
(** The ASCII table followed by one line per fit and per note. *)

val stable_json : outcome -> Json.t
(** Everything deterministic about the outcome (no wall time): id, title,
    columns, rows (cells / aggregates / values), fits, notes. *)

val json_of_outcome : outcome -> Json.t
(** {!stable_json} plus [wall_seconds] and, when captured, a ["profile"]
    object (allocation words, rounds simulated, rounds/s).  {!Bench.gates}
    names the fields {!Bench.compare} checks. *)

val results_json : scale:Experiment.scale -> jobs:int -> outcome list -> Json.t
(** The top-level [BENCH_results.json] document ([securebit-bench/1]):
    scale, worker count, total wall time, one entry per experiment. *)
