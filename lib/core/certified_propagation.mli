(** The certified propagation algorithm (CPA) of Koo (PODC'04) and
    Bhandari–Vaidya (PODC'05) — the protocol MultiPathRB descends from.

    A node commits when it hears the message directly from the source, or
    when [tolerance + 1] distinct already-committed neighbours vouch for
    the same value: Byzantine nodes can lie about their own commitment but
    cannot impersonate others, and at most [tolerance] of any
    neighbourhood lie.

    The main API runs CPA over the radio {!Engine} as a comparison
    protocol: announcements occupy whole TDMA slots ({!Announcer}, as in
    {!Epidemic}), and the single-hop authentication CPA assumes is
    realised positionally — each slot has at most one owner among any
    receiver's decodable neighbours, so a clear packet is attributable to
    its sender by the slot it arrived in.  What this cannot harden against is
    physical-layer interference (collisions and jamming destroy packets
    silently), which is precisely the gap the paper's bit-level protocols
    close; the graph-class experiments measure that gap.

    {!Reference} keeps the original synchronous baseline in CPA's native
    model (reliable, authenticated single-hop delivery, no radio), used by
    the A5 ablation for the idealised round count. *)

type ctx

val make_ctx : tolerance:int -> topology:Topology.t -> source:Node.id -> ctx
(** Build the per-run context; [tolerance] is t, so the commit quorum is
    [t + 1] distinct vouchers.  The schedule is {!Announcer.schedule}'s. *)

val schedule : ctx -> Schedule.t
val cycle_rounds : ctx -> int

val progress : ctx -> int
(** Number of commits so far — monotone, for stall detection. *)

type role = Source of Bitvec.t | Relay | Liar of Bitvec.t

val machine : ctx -> Node.id -> role -> Msg.t Engine.machine
(** The CPA state machine; a committed node announces its value through
    {!Announcer}, whose wakeup contract it keeps. *)

(** The original synchronous reference in CPA's native friendly model:
    every announcement reaches all decode neighbours reliably in one
    round, attributed to its true sender.  Not runnable over a Byzantine
    radio — the natural baseline for what radio hardening costs. *)
module Reference : sig
  type config = {
    radius : float;  (** neighbourhood radius of the commit rule *)
    tolerance : int;  (** t *)
  }

  type role = Source | Honest | Liar of Bitvec.t

  type result = {
    rounds : int;  (** rounds until quiescence *)
    committed : Bitvec.t option array;  (** per-node committed value *)
    messages : int;  (** total messages sent *)
  }

  val run :
    config -> topology:Topology.t -> source:Node.id -> message:Bitvec.t ->
    roles:role array -> max_rounds:int -> result
  (** Synchronous execution: each round, every node that committed in the
      previous round announces its value to all its decode neighbours;
      liars announce their fake value from the start and never relay.
      Stops at quiescence (no new commitment) or [max_rounds]. *)
end
