(** Partition of the deployment area into the squares of NeighborWatchRB.

    The protocol partitions the plane into squares of maximal side such that
    any two nodes in (8-)adjacent squares can communicate: side [⌈R/2⌉] in
    the analytical L-infinity model, and [R/3] for the simulation model over
    Euclidean distance (the reduced size the paper's implementation uses to
    guarantee propagation between adjacent squares under L2 range — across
    two diagonal squares the L2 separation is at most [2·√2·side ≤ R]
    when [side = R/3]).  All nodes in a square act as one "meta-node". *)

type t

val make : side:float -> width:float -> height:float -> t
(** Partition of [\[0,width\] × \[0,height\]] into squares of side [side]
    (the last row/column may be narrower).  Requires positive arguments. *)

val side : t -> float
val count : t -> int
(** Total number of squares. *)

val cols : t -> int
val rows : t -> int

val square_of : t -> Point.t -> int
(** Id of the square containing a point (points outside the area are clamped
    to the border squares). *)

val coords : t -> int -> int * int
(** Grid coordinates [(cx, cy)] of a square id. *)

val id_of_coords : t -> int * int -> int option
(** Inverse of [coords]; [None] outside the grid. *)

val neighbors : t -> int -> int list
(** The up-to-8 adjacent squares (excluding the square itself). *)

val analytic_side : radius:float -> float
(** [⌈R/2⌉], the analytic square side (Section 4). *)

val simulation_side : radius:float -> float
(** [R/3], the reduced side the paper's simulations use (Section 6). *)
