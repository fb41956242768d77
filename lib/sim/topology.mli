(** A node embedding paired with the decode/sense graph the simulation runs
    on, plus a record of how that graph was obtained.

    Historically this module {e was} the radio model: the graph existed only
    as the output of the spatial-hash builder over a disk deployment.  The
    graph itself now lives in {!Graph}; a topology wraps one together with
    the {!Deployment} that embeds its nodes in the plane and a {!kind}
    saying whether the edges came from a propagation model ([Radio]) or were
    constructed explicitly ([Synthetic], e.g. the generated families in
    {!Graphs}).  Protocol layers that need a length scale (voting windows,
    frame coordinate lattices, watch squares) ask for {!sense_reach} /
    {!rx_reach}, which a radio topology answers from its propagation model
    and a synthetic one answers with its longest embedded decode edge. *)

type kind =
  | Radio of Propagation.t
      (** Edges derived from a propagation model over node positions. *)
  | Synthetic of { family : string; coord_range : float }
      (** An explicitly constructed graph. [family] names the generator
          ("grid_holes", "corridor", ...); [coord_range] is the longest
          embedded decode-edge length (≥ 1.0), standing in for the radio
          range wherever protocols need a distance scale. *)

type t

val build : Deployment.t -> Propagation.t -> t
(** Radio topology, neighbours found through a {!Cell_index}: node [j]
    is in node [i]'s row iff the received power of [j] at [i] clears the
    sensing threshold, and [i] decodes [j] iff that power reaches the
    (normalised) decode threshold 1.0.  Rows come out sorted by peer id,
    written straight into the graph's flat form, and since the power
    depends on distance alone they are symmetric, so the graph shares them
    as its fan-out rows; the build takes time and words linear in nodes
    plus links, however wide the map. *)

val synthetic : family:string -> Deployment.t -> Graph.t -> t
(** Wrap an explicitly constructed graph with the embedding used to draw
    and measure it.  Raises [Invalid_argument] if the deployment and graph
    disagree on the node count. *)

val graph : t -> Graph.t
val deployment : t -> Deployment.t
val kind : t -> kind

val is_geometric : t -> bool
(** [true] exactly for [Radio] topologies — the ones whose deployments live
    on the square map the paper's analytic bounds (Koo impossibility,
    ⌈R/2⌉ tolerance) are stated for. *)

val family : t -> string
(** Generator name for synthetic topologies, ["radio"] otherwise. *)

val sense_reach : t -> float
(** Distance within which a transmission is detectable: the propagation
    sense range for radio topologies, [coord_range] for synthetic ones. *)

val rx_reach : t -> float
(** Distance within which a transmission is decodable: the propagation rx
    range for radio topologies, [coord_range] for synthetic ones. *)

val position : t -> Node.id -> Point.t
val size : t -> int
