(** NeighborWatchRB (Section 4, Level 2): authenticated multi-hop broadcast
    by neighbourhood watch.

    The plane is partitioned into squares small enough that any node in a
    square can communicate with any node in an adjacent square.  All honest
    members of a square act as one meta-node running the 1Hop-Protocol
    towards the nodes of adjacent squares: members that have committed to
    the next bit transmit it together; a member that has not vetoes the
    exchange (the "neighbourhood watch"), so corrupt data can leave a
    square only if the square contains no honest node at all — hence the
    tolerance [t < ⌈R/2⌉²] per neighbourhood, or roughly [t < R²/2] for the
    2-voting variant ([votes = 2]), where a node commits a bit only after
    receiving it from two different adjacent squares.

    A node commits to bit [i] when some adjacent square's stream (or the
    source itself, which is authenticated directly by Theorem 2) agrees
    with its whole committed prefix and extends it; committed bits are
    queued on the node's own square stream for forwarding.  The message is
    delivered once all [msg_len] bits are committed.

    The [`Liar] role reproduces the paper's lying experiments: the device
    runs this exact protocol but starts out committed to a fake message —
    it "appears correct" to its neighbours. *)

type config = {
  radius : float;  (** communication radius R *)
  square_side : float;  (** side of the meta-node squares *)
  votes : int;  (** 1 (default protocol) or 2 (2-voting variant) *)
  msg_len : int;  (** broadcast message length, known to all nodes *)
  catchup_failures : int;
      (** consecutive 2Bit failures after which a member that already knows
          the next bit skips forward (square catch-up rule, DESIGN.md) *)
  pipelined : bool;
      (** [true] (the protocol): forward each bit as soon as it commits.
          [false]: store-and-forward ablation — forward only once the whole
          message has been committed, the naive layering whose running time
          is Ω(β·D·log|Σ|) (Section 1, "Analysis"). *)
}

val default_config : radius:float -> msg_len:int -> config
(** Simulation sizing: squares of side R/3, 1-voting, catch-up after 25
    failures. *)

val analytic_config : radius:float -> msg_len:int -> config
(** Analytic sizing: squares of side ⌈R/2⌉. *)

(** The safety-critical voting kernel of the protocol, exposed so that the
    {!Vote_check} exhaustive verifier can drive exactly the code the
    protocol runs — the monotone agreement pointers, the once-per-frontier
    tally and the source override — on enumerated Byzantine stream
    patterns.  A {!stream} is one adjacent-square (or source) bit stream; a
    {!t} holds the node-wide frontier vote state.  Protocol semantics: a
    stream is a candidate for the frontier bit only while it agrees with
    the node's entire committed prefix; the source stream alone decides
    (Theorem 2 authenticates it); otherwise [votes] distinct square streams
    must agree on the frontier bit. *)
module Vote : sig
  type provider = Src | Sq of int  (** the source, or an adjacent square *)

  type stream

  val stream : provider -> stream
  (** A fresh stream with an empty receiver and clean agreement state. *)

  val receiver : stream -> One_hop.Receiver.t
  (** The underlying 1Hop receiver; push decoded bits here. *)

  val provider : stream -> provider

  type t

  val create : votes:int -> t
  (** Frontier vote state for the 1-voting ([votes = 1]) or 2-voting
      ([votes = 2]) protocol variant. *)

  val votes : t -> int

  val poll : t -> committed:Buffer.t -> stream array -> bool option
  (** One frontier decision at [Buffer.length committed]: advance every
      stream's agreement pointer, tally candidate streams' frontier bits
      (each at most once per frontier), and return [Some bit] when the
      source stream has spoken or [votes] square streams agree. *)
end

type ctx

val make_ctx : config -> topology:Topology.t -> source:Node.id -> ctx
val schedule : ctx -> Schedule.t

type role =
  | Source of Bitvec.t  (** the broadcast source and its message *)
  | Relay  (** an ordinary honest device *)
  | Liar of Bitvec.t  (** runs the protocol pre-committed to a fake message *)

val machine : ?initial_commit:Bitvec.t -> ctx -> Node.id -> role -> Msg.t Engine.machine
(** The engine machine for one node (one per node per context).
    [Source]/[Liar] payloads must have length [msg_len].  [initial_commit]
    pre-seeds a [Relay] with a prefix it committed earlier (epoch
    hand-over in mobile runs, see {!Mobile}); commitment is a local fact,
    so it survives re-clustering.  It may hold at most [msg_len] bits.  A
    payload of the wrong length raises [Invalid_argument] naming both
    lengths.

    Deferred state: a [Relay] with no (or an empty) [initial_commit]
    costs only its state record and the engine closures until its first
    [act] or [observe] (or a {!stream_counts} read) builds its streams,
    committed buffer, 1Hop sender, vote tally and 2Bit machine;
    most nodes of a sparse network never act.  Invariant: until then the
    relay is observationally identical to a freshly built one (no bits
    queued, every stream at an even count, nothing committed), which is
    all [delivered], [next_active], {!committed_bits}, {!unsent_bits} and
    {!progress} read.  A [Source], a [Liar] and a relay with a non-empty
    [initial_commit] commit bits at construction and build everything
    then.

    Wakeup contract (quiet intervals): an interval needs polls only if the
    node sends in it — its own slot, with a bit queued — or listens in it
    on a stream whose received count is odd, where a silent interval reads
    as the pair ⟨0,0⟩ and is accepted.  A node that is idle, blocking with
    nothing to send, or receiving at an even index is woken only by a
    reception; once it has seen activity in an interval it stays awake to
    the interval's end. *)

val listeners : ctx -> int -> int array
(** [listeners ctx] builds the context's listener sets for
    {!Engine.run}'s [listeners], once, in O(9n) time and
    [cycle × ⌈n / Bitvec.bits_per_word⌉] words; applied to a round, it
    returns the set of the round's {!Schedule.active_slot}.  A square's
    slot is heard by every member of its 3×3 block of squares, and slot 0
    by the source and every node that senses it.  Any other node is idle
    in that slot's intervals, whatever its role or state, so observing
    anything there changes nothing.  The sets do not depend on roles: a
    jammer or crashed device in a block is in it too, which is safe. *)

val committed_bits : ctx -> Node.id -> Bitvec.t
(** Prefix committed so far by a node built with [machine] (for tests and
    progress inspection).  Raises [Invalid_argument] for an id outside
    [0, n) or a node without a machine. *)

val stream_counts : ctx -> Node.id -> (int * int) list
(** [(slot, bits received)] for every stream a node listens to: one per
    adjacent square, in that square's slot, plus the source's in slot 0
    if the node senses the source.  For tests and progress inspection,
    like {!committed_bits}. *)

val unsent_bits : ctx -> Node.id -> int
(** Bits queued on a node's outgoing square stream and not yet confirmed;
    [0] means it has nothing to send in its own slot. *)

val progress : ctx -> int
(** Progress counter over all machines of this context: total committed
    bits plus total stream bits received.  When it stops changing for a
    long time the network is wedged (e.g. honest square members
    permanently vetoing liars) and a simulation can be cut short.  Not
    monotone: a liar that gives up clears its committed prefix, which
    lowers the count.  O(1): a running total that each machine updates in
    O(1) as its own count changes. *)
