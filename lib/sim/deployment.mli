(** Device deployments.

    The paper analyses a unit grid and simulates maps of 20×20 to 60×60
    length units with up to 4000 nodes placed uniformly at random or in
    clusters (normal scatter around random centres, sampled with Marsaglia's
    polar method). *)

type t = { width : float; height : float; nodes : Node.t array }

val grid : width:int -> height:int -> t
(** One node at every integer point of the [width × height] grid (the
    analytic model).  Node ids are assigned in row-major order. *)

val uniform : Rng.t -> n:int -> width:float -> height:float -> t
(** [n] nodes placed independently and uniformly at random. *)

val clustered :
  Rng.t -> n:int -> clusters:int -> stddev:float -> width:float -> height:float -> t
(** [clusters] centres placed uniformly at random; each node picks a random
    centre and scatters around it with a symmetric normal of the given
    standard deviation, clamped to the map. *)

val density : t -> float
(** Nodes per unit area (the paper's density measure). *)

val size : t -> int

val center_node : t -> Node.id
(** Id of the node closest (L2) to the map centre; the experiments pick the
    source there.  Requires a non-empty deployment. *)
