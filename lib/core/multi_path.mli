(** MultiPathRB (Section 4, Level 2): optimally resilient authenticated
    broadcast by multi-path voting.

    Every node owns its own TDMA slot and runs the 1Hop-Protocol towards
    all its neighbours, streaming self-delimiting {!Frame} messages.  The
    source streams ⟨SOURCE, bᵢ⟩ frames; its direct neighbours commit from
    them (authenticated by Theorem 2).  A node that commits bit [i] streams
    ⟨COMMIT, bᵢ⟩; a node that receives a COMMIT from [v] streams
    ⟨HEARD, v, bᵢ⟩.  Everyone else commits through the {!Voting.quorum}
    rule: [t + 1] pieces of evidence with distinct origins inside one
    common neighbourhood.  Tolerates up to [t < R(2R+1)/2] Byzantine nodes
    per neighbourhood — the Koo optimum — at a substantial message cost
    (the paper finds it orders of magnitude slower than epidemic flooding).

    Senders are identified by schedule slot, so spoofing another node
    requires transmitting in its slot, where the honest owner vetoes.

    The [`Liar] role reproduces the paper's lying experiments: the device
    is pre-committed to a fake message, broadcasts COMMIT frames for it,
    and never relays HEARD messages from correct nodes. *)

type config = {
  radius : float;  (** neighbourhood radius R used by the commit rule *)
  tolerance : int;  (** t: the protocol commits on t+1 concurring origins *)
  msg_len : int;
  coord_step : float;  (** quantisation of positions in HEARD frames *)
  heard_relay_limit : int option;
      (** optional cap on HEARD frames relayed per bit; [None] (the
          protocol as written) relays every COMMIT heard.  The scaled-down
          benchmark harness uses a cap, documented in DESIGN.md. *)
}

val default_config : radius:float -> tolerance:int -> msg_len:int -> config

type ctx

val make_ctx : config -> topology:Topology.t -> source:Node.id -> ctx
val schedule : ctx -> Schedule.t

type role = Source of Bitvec.t | Relay | Liar of Bitvec.t

val machine : ctx -> Node.id -> role -> Msg.t Engine.machine
(** The engine machine for one node.  Raises [Invalid_argument] naming
    both lengths if a [Source] or [Liar] payload's length is not
    [msg_len]. *)

val listeners : ctx -> int -> int array
(** [listeners ctx] builds the context's listener sets for
    {!Engine.run}'s [listeners], once, in O(n + links) time and
    [cycle × ⌈n / Bitvec.bits_per_word⌉] words; applied to a round, it
    returns the set of the round's {!Schedule.active_slot}.  A node hears
    its own slot and the slot of every sensed peer — exactly the slots its
    machine's wakeup contract covers; in any other slot's intervals it is
    idle, so observing anything there changes nothing.  Roles are not
    consulted, which is safe: a superset. *)

val committed_bits : ctx -> Node.id -> Bitvec.t
(** Prefix committed so far by a node built with [machine].  Raises
    [Invalid_argument] for an id outside [0, n) or a node without a
    machine. *)

val stream_counts : ctx -> Node.id -> (Node.id * int) list
(** [(peer, bits received)] for every sensed peer's 1Hop stream, in
    sensed order.  For tests and progress inspection, like
    {!committed_bits}. *)

val progress : ctx -> int
(** Monotone progress counter over all machines of this context: total
    committed bits plus total stream bits received.  Used to cut wedged
    simulations short; see {!Neighbor_watch.progress}.  O(n) over a flat
    per-node array that each machine updates in O(1) for its own node. *)
