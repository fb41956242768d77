(** Scale campaign driver ([securebit_cli scale]).

    Sweeps node count × target density × adversary mix over two graph
    classes — geometric uniform deployments under a disk radio, and
    synthetic expanders — timing one broadcast per cell on the sparse
    engine loop.  Each cell runs once cold (deployment + topology build
    included) and [warm] more times on the cold run's cached topology, so
    the cold/warm delta isolates setup cost from the steady-state engine
    rate.  Results can be archived as one labelled JSON file per run plus
    a manifest, and a ceiling on the process's major-heap peak turns
    memory growth into a failing exit the same way {!Bench.compare} gates
    the registry. *)

type config = {
  label : string;  (** archive subdirectory and report heading *)
  node_counts : int list;
  densities : float list;  (** target average degree per node count *)
  adversaries : string list;  (** subset of {!Scale_sweep.known_adversaries} *)
  classes : Scale_sweep.klass list;
  protocol : Scenario.protocol;
  seed : int;
  cap : int;  (** engine round cap, at least 1 *)
  warm : int;  (** warm runs per cell after the cold one *)
  message : string;  (** broadcast payload bits *)
  out_dir : string option;  (** archive under [out_dir/label/], if given *)
  mem_ceiling_words : int option;
      (** the campaign fails (reported after the table) if the process's
          major-heap peak, read after each run, exceeds this many words:
          the first run over it and every run after it are reported *)
  dry_run : bool;  (** print the plan and execute nothing *)
}

val default : config
(** A small smoke sweep every machine finishes in seconds per run;
    callers scale node counts up explicitly. *)

type phase = Cold | Warm of int

type planned = { run_id : string; cell : Scale_sweep.cell; phase : phase }
(** [run_id] reads e.g. ["n10000-d4-lying-uniform-cold"]. *)

val plan : config -> planned list
(** The exact runs {!run} executes, in execution order: each of
    {!Scale_sweep.cells}' cells, cold then warm — the [--dry-run] preview
    prints this list and nothing else, so preview and execution cannot
    disagree.  Each run simulates {!Scale_sweep.spec_of_cell} on a base
    built from the config, the same spec the registered S1 experiment
    uses. *)

type executed = {
  planned : planned;
  wall_seconds : float;  (** the whole run; a cold run's includes its topology build *)
  topology_seconds : float;
      (** deployment + topology build ({!Scenario.topology}) on a cold
          run; 0 on a warm one, which reuses the cold run's *)
  rounds : int;
  rounds_per_second : float;
  avg_degree : float;  (** measured, vs the cell's target density *)
  process_peak_heap_words : int;
      (** the process's major-heap peak so far, read after the run: not
          this run's own peak.  OCaml never returns major-heap memory, so
          the reading is monotone across a campaign, and every run after
          the largest reads the largest's peak. *)
  summary : Scenario.summary;
}

val render : executed list -> string

val run : config -> (executed list * bool, string) result
(** Print the plan, execute it (unless [dry_run]), print the table,
    archive if configured.  [Ok (runs, failed)] where [failed] means the
    process peaked over [mem_ceiling_words]; [Error] on bad config. *)
