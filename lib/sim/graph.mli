(** The abstract decode/sense graph every simulation runs on.

    This is the engine's and the protocols' actual substrate: who puts
    detectable energy on whose channel, at what power, and so who can
    decode whom, plus the graph-theoretic measurements the experiments
    report against.  It carries no geometry — {!Topology} pairs a graph
    with a node embedding and records how the graph was obtained (a radio
    propagation model, or one of the explicit generated families in
    {!Graphs}).

    The graph is one flat incoming CSR: node [i]'s row lists every node
    whose transmissions [i] senses, ascending by id, with the normalised
    power each arrives at (1.0 = decode threshold).  A link decodes iff
    its power is at least 1.0; there is no second store of the decode
    relation to keep consistent with the powers.  The engine's outgoing
    form ({!csr}) is derived from the rows once, when the graph is
    built; where the rows are symmetric it is the rows themselves. *)

type words = {
  word_off : int array;  (** row offsets into the entry arrays, length [size + 1] *)
  word_idx : int array;
      (** entry word: receivers [w * Bitvec.bits_per_word] up to
          [(w + 1) * Bitvec.bits_per_word - 1] *)
  word_sensed : int array;
      (** bit [b] set: receiver [w * bits_per_word + b] senses the row's
          node *)
  word_dec : int array;
      (** the sensed receivers that decode it: power [>= 1.0] and finite *)
}
(** A CSR row regrouped by receiver word, for the collision-only fan-in
    (see {!csr}). *)

type csr = {
  out_off : int array;  (** row offsets, length [size + 1] *)
  out_rcv : int array;  (** receivers sensing node [i]: slice [out_off.(i) .. out_off.(i+1) - 1] *)
  out_pow : float array;  (** power each receiver in [out_rcv] gets [i]'s transmissions at *)
  words : words option;
      (** The same rows as word entries, or [None] where they do not pay
          or are not exact.  They are built only when both hold:
          - there are at most half as many entries as links;
          - the smallest sensed power exceeds
            [1e-12 +. (d² + 2) · p_max · epsilon_float], where [d] is the
            largest in-degree and [p_max] the largest finite power.  Then
            no float power sum can swallow a sensed power, and "exactly
            one sensed link, and it decodes" is exactly
            {!Channel.resolve_packed}'s no-capture, no-loss rule. *)
}
(** The sense relation transposed into compressed-sparse-row form — the
    engine's fan-out structure.  Receivers ascend within each row.  Where
    every link r ← s has its twin s ← r at an equal power (every radio
    topology, whose channel depends on distance alone, and every
    {!Graphs} family), the rows are their own transposition and
    [out_off]/[out_rcv]/[out_pow] are physically [in_off]/[in_peer]/
    [in_pow]; otherwise they are a transposed copy.  [Engine.run]'s
    per-link fan-out walks each row from its end, so it meets receivers
    {e descending}: the iteration order of the engine's original
    cons-list representation, which per-link loss draws and capture
    tie-breaks depend on bit-for-bit. *)

type t = private {
  in_off : int array;  (** row offsets, length [size + 1] *)
  in_peer : Node.id array;
      (** the nodes [i] senses: slice [in_off.(i) .. in_off.(i+1) - 1],
          strictly ascending *)
  in_pow : float array;  (** the power each of them arrives at; it decodes iff [>= 1.0] *)
  csr : csr;  (** the outgoing transposition, built with the graph *)
}

val csr : t -> csr
(** The engine's fan-out view of the rows, with its word entries where
    they are built. *)

val of_incoming : in_off:int array -> in_peer:Node.id array -> in_pow:float array -> t
(** Take a flat incoming CSR as it is (the arrays are not copied) and
    derive {!csr}: the same arrays if the rows are symmetric, a transposed
    copy if not.  Raises [Invalid_argument] on offsets that disagree
    with the link arrays, out-of-range peers, self-loops, NaN or
    non-positive powers, duplicate links, or a row that does not ascend. *)

val make : (Node.id * float) array array -> t
(** [make rows]: row [i] lists [(peer, power)] for every node [i]
    senses, in any order.  Copies and sorts the rows, then validates them
    as {!of_incoming} does. *)

val of_edges : n:int -> (Node.id * Node.id) list -> t
(** Undirected decode-only graph from an edge list, every link at exactly
    the decode threshold (the shape every generated graph family uses);
    duplicate edges are merged. *)

val size : t -> int

val senses : t -> rx:Node.id -> tx:Node.id -> bool
(** [tx] is in [rx]'s row (a binary search). *)

val can_decode : t -> rx:Node.id -> tx:Node.id -> bool

val iter_rx : t -> Node.id -> (Node.id -> unit) -> unit
(** [iter_rx t i f] applies [f] to every node [i] can decode, ascending. *)

val degree : t -> Node.id -> int
(** Number of nodes [i] can decode. *)

val hops_from : t -> Node.id -> int array
(** BFS hop counts over the decode graph; [-1] marks unreachable nodes. *)

val hop_diameter_from : t -> Node.id -> int
(** Maximum finite hop count from a node (its eccentricity). *)

val reachable_from : t -> Node.id -> int
(** Number of nodes reachable from a node, including itself. *)

val is_connected : t -> bool

val avg_degree : t -> float
(** Average decode degree (the paper quotes ≈80 neighbours for its lying
    experiments). *)

val max_degree : t -> int

val is_symmetric : t -> bool
(** Every decode edge has its reverse (all generated families are
    undirected; radio graphs under asymmetric power need not be). *)
