(** The simple epidemic flooding baseline (Section 6.2).

    No authentication and no fault tolerance: the whole message travels in
    a single packet; a node that has the message rebroadcasts it a fixed
    number of times in its own TDMA slot; receivers adopt the first packet
    they decode, whoever sent it.  Any Byzantine interference can suppress
    packets (collisions) or inject fake ones.  The paper compares
    NeighborWatchRB against this protocol (≈7.7× slower) and uses it as the
    fast channel of the dual-mode scheme.

    The baseline runs under the same MAC model as the protocols
    ({!Announcer}: a fixed TDMA schedule with the 3R conflict rule, one
    6-round broadcast interval per packet, 3 repeats).  Giving the
    baseline an idealised 1-round, interference-free schedule instead
    would overstate the cost of authentication by an order of magnitude
    (see EXPERIMENTS.md, E7). *)

type ctx

val make_ctx : topology:Topology.t -> source:Node.id -> ctx

val schedule : ctx -> Schedule.t
(** The TDMA schedule the packets ride on (slot ids are node ids). *)

val cycle : ctx -> int
(** Slots per schedule cycle. *)

val cycle_rounds : ctx -> int
(** Rounds per schedule cycle ([cycle × Schedule.rounds_per_interval]). *)

type role = Source of Bitvec.t | Relay | Liar of Bitvec.t

val machine : ctx -> Node.id -> role -> Msg.t Engine.machine
