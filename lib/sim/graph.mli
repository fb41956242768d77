(** The abstract decode/sense graph every simulation runs on.

    This is the engine's and the protocols' actual substrate: who can decode
    whom ([rx]) and who puts detectable energy on whose channel ([sensed]),
    plus the graph-theoretic measurements the experiments report against.
    It carries no geometry — {!Topology} pairs a graph with a node embedding
    and records how the graph was obtained (a radio propagation model, or
    one of the explicit generated families in {!Graphs}). *)

type link = { peer : Node.id; power : float }
(** An incoming link: transmissions of [peer] arrive with the given
    normalised power (1.0 = decode threshold). *)

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
    engine's fan-out structure.  Receivers appear {e descending} within each
    row: the iteration order of the engine's original cons-list
    representation, which per-link loss draws and capture tie-breaks
    depend on bit-for-bit. *)

type t = {
  sensed : link array array;
      (** [sensed.(i)] lists every node whose transmissions put detectable
          energy on [i]'s channel, with power, sorted by peer id. *)
  rx : Node.id array array;
      (** [rx.(i)] lists nodes that [i] can decode (power ≥ 1.0), sorted
          ascending — [can_decode] binary-searches these rows. *)
  mutable csr_cache : csr option;
      (** private lazily-built cache behind {!csr}; always construct it as
          [None] and read it only through {!csr} *)
}

val csr : t -> csr
(** The cached CSR fan-out view of [sensed], with its word entries where
    they are built, computed on first demand.  Safe to call from exactly
    one domain at a time. *)

val make : sensed:link array array -> rx:Node.id array array -> t
(** Copy, sort and validate the rows.  Raises [Invalid_argument] on
    out-of-range peers, self-loops, duplicate links, NaN or non-positive
    powers, or an [rx] that is not exactly the power [>= 1.0] part of
    [sensed] (an [rx] edge absent from [sensed] or below the decode
    power, a duplicate [rx] edge, a decodable link missing from [rx]). *)

val of_rx : Node.id array array -> t
(** Decode-only graph: [sensed] mirrors [rx] at exactly the decode
    threshold (the shape every generated graph family uses). *)

val of_edges : n:int -> (Node.id * Node.id) list -> t
(** Undirected graph from an edge list; duplicate edges are merged. *)

val size : t -> int
val can_decode : t -> rx:Node.id -> tx:Node.id -> bool
val degree : t -> Node.id -> int

val hops_from : t -> Node.id -> int array
(** BFS hop counts over the decode graph; [-1] marks unreachable nodes. *)

val hop_diameter_from : t -> Node.id -> int
val reachable_from : t -> Node.id -> int
val is_connected : t -> bool
val avg_degree : t -> float
val max_degree : t -> int

val is_symmetric : t -> bool
(** Every decode edge has its reverse (all generated families are
    undirected; radio graphs under asymmetric power need not be). *)
