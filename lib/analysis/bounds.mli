(** Theoretical fault-tolerance bounds quoted by the paper.

    All bounds are per neighbourhood, for the analytic L-infinity model
    with communication radius [R] on the unit grid:

    - Koo's impossibility: no protocol tolerates
      [t >= R(2R+1)/2] Byzantine devices per neighbourhood;
    - MultiPathRB matches it: [t < R(2R+1)/2];
    - NeighborWatchRB: [t < ⌈R/2⌉²] (one honest node per square);
    - 2-voting NeighborWatchRB: roughly [t < R²/2].

    These are used by tests and by the experiment index to relate the
    tunable [t] of MultiPathRB to the neighbourhood size. *)

val neighbourhood_size : radius:int -> int
(** Number of grid nodes in an L-infinity ball of the given radius,
    excluding the centre: [(2R+1)² - 1]. *)

val koo_bound : radius:int -> int
(** Largest [t] that is *impossible* to tolerate is [koo_bound]; every
    [t < koo_bound] is feasible (Koo 2004): [R(2R+1)/2]. *)

val multi_path_tolerance : radius:int -> int
(** Maximum [t] MultiPathRB tolerates: [koo_bound - 1]. *)

val neighbor_watch_tolerance : radius:int -> int
(** Maximum [t] NeighborWatchRB tolerates: [⌈R/2⌉² - 1]. *)

val two_voting_tolerance : radius:int -> int
(** Maximum [t] of the 2-voting variant: [⌊R²/2⌋ - 1]. *)

val job : Experiment.job
(** The [bounds] table: the bounds side by side for R = 2, 3, 4, 6 and 8,
    with the fraction of the neighbourhood each represents (no
    simulation). *)
