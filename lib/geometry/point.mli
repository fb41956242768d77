(** Points in the plane and the two metrics used by the paper.

    The analytical model (Section 3) places nodes on an integer grid and uses
    the L-infinity norm: [v] neighbours [w] iff [|x2-x1| <= R] and
    [|y2-y1| <= R].  The simulation model uses Euclidean (L2) distance under
    Friis free-space propagation. *)

type t = { x : float; y : float }

val make : float -> float -> t
val dist_l2 : t -> t -> float
val equal : t -> t -> bool

type metric = L2 | Linf

val within : metric -> float -> t -> t -> bool
(** [within metric r a b] iff [a] and [b] are at most [r] apart under
    [metric]. *)
