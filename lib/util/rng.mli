(** Deterministic splittable pseudo-random number generator (SplitMix64).

    Every simulation in this repository draws randomness exclusively through
    this module so that experiments are reproducible from a single integer
    seed.  [split] derives an independent stream, which lets concurrent
    experiment repetitions use disjoint randomness without coordination. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator from an integer seed. *)

val split : t -> t
(** [split t] advances [t] and returns a statistically independent stream. *)

val int64 : t -> int64
(** Next raw 64-bit output.  [int], [bool] and [bernoulli] draw through it
    without allocating; [int64] and [float] box only their result. *)

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n)].  Requires [n > 0]. *)

val float : t -> float -> float
(** [float t x] is uniform in [\[0, x)]. *)

val bool : t -> bool
(** Fair coin flip. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val normal : t -> mean:float -> stddev:float -> float
(** Normal deviate via Marsaglia's polar method (the algorithm the paper
    cites, from Knuth vol. 2, for clustered deployments). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val sample_without_replacement : t -> int -> int -> int list
(** [sample_without_replacement t k n] draws [k] distinct values from
    [\[0, n)].  Requires [0 <= k <= n]. *)

val bits : t -> int -> bool array
(** [bits t k] is an array of [k] fair random bits. *)
