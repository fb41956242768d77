(** The registry benchmark behind [securebit_cli bench] and
    [securebit_cli compare]: select registry jobs, execute them (possibly
    domain-parallel), print each table as it completes, optionally write
    the JSON results file, and gate one results file against another. *)

type options = {
  scale : Experiment.scale;
  jobs : int;  (** worker domains; 1 = sequential *)
  only : string list;  (** experiment ids to run; empty = all *)
  json_path : string option;  (** where to write the JSON results, if anywhere *)
  profile : bool;
      (** record {!Runner.profile} counters (allocation deltas, rounds/s,
          per-worker GC stats) per job, printed after each table and
          embedded in the JSON, where {!compare} gates them *)
}

val selection : string list -> (Experiment.job list, string) result
(** Resolve ids against {!Registry.all} (canonical order kept); [Error]
    names any unknown ids. *)

val run : options -> (Runner.outcome list, string) result
(** Run the selected jobs, printing tables, fits, notes and per-job wall
    times; write [json_path] if given.  [Error] on unknown ids. *)

(** {1 Comparison}

    A gate reads one number out of each experiment entry of a results file
    and sets its limit from the baseline's own value of that number, so a
    baseline file holds measurements only. *)

type gate = {
  field : string list;  (** path to the number in an experiment entry *)
  limit : float -> float option;
      (** the limit a baseline value sets; [None]: the experiment is not
          gated on this field *)
  floor : float;  (** a row where both sides are below this is never flagged *)
  decimals : int;  (** report precision *)
}

val gates : gate list
(** [wall_seconds]: 1.2 × base, with a 0.05 s floor;
    [profile.top_heap_words]: 1.5 × base, rounded up to the next 100 000
    words; [profile.words_per_active_round]: ⌈1.2 × base⌉ where the base
    is above 0. *)

type verdict =
  | Within
  | Below_floor
  | Over  (** the only failing verdict *)
  | New  (** the experiment is absent from the baseline *)
  | Not_run  (** the experiment is absent from the current file *)
  | Not_profiled  (** the current entry lacks the field: a warning *)

type check = {
  id : string;
  gate : gate;
  base : float option;
  limit : float option;
  current : float option;
  verdict : verdict;
}

val compare : base:string -> current:string -> (check list, string) result
(** Read two results files and check the current one against every gate:
    one check per (experiment, gate) where the baseline sets a limit, plus
    [New] rows for the experiments the baseline lacks.  Experiments come
    in current-file order, then the baseline's experiments the current
    file lacks.  [Error] names an unreadable or malformed file. *)

val render : check list -> string
(** One table row per check, then a line naming the [Over] rows and a
    warning naming the [Not_profiled] ones. *)
