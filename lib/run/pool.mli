(** Deterministic domain worker pool.

    [map_array_stats ~jobs f xs] applies [f] to every element of [xs] on up
    to [jobs] OCaml 5 domains (the calling domain included) and returns the
    results in input order — workers race only for task indices, never for
    result slots, so the output is independent of scheduling.  Tasks must
    be self-contained: the simulation trials run here each carry their own
    seed and build their own [Rng] and topology, and no module under [lib]
    keeps top-level mutable state ({!Source_lint}'s [global-mutable] rule).
    The runner test that compares [--jobs 4] against [--jobs 1] checks the
    whole guarantee on registry experiments.

    [jobs <= 1] runs sequentially on the calling domain with no spawns.
    If a task raises, one such exception is re-raised after all domains
    have joined, with the backtrace of the original raise site. *)

type worker_stat = {
  domain_index : int;  (** 0 = the calling domain *)
  tasks_run : int;
  minor_words : float;  (** {!Gc.minor_words} delta on that domain *)
  major_words : float;
  promoted_words : float;
  top_heap_words : int;
      (** process-lifetime major-heap high-water mark when this domain
          finished — a peak, not a delta (the major heap is shared) *)
}
(** Per-domain execution counters, exact on every domain (each worker
    snapshots its own GC stats; the other deltas are {!Gc.quick_stat}'s). *)

val map_array_stats : jobs:int -> ('a -> 'b) -> 'a array -> 'b array * worker_stat list
(** The results, and one {!worker_stat} per domain used (a single entry at
    [jobs <= 1]), for [--profile] reporting. *)
