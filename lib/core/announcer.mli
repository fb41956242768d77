(** Whole-packet announcements in a node's own TDMA slot: the MAC layer
    {!Epidemic} and {!Certified_propagation} share.

    Both run under the protocols' MAC model (Section 3): a fixed TDMA
    schedule with the 3R conflict rule, and a slot long enough for one
    packet of a few bits, i.e. one 6-round broadcast interval.  A node that
    holds a value sends it in the first round of its slot, [repeats]
    times, then falls silent for good. *)

val repeats : int
(** Announcements per node: 3. *)

val schedule : Topology.t -> source:Node.id -> Schedule.t
(** Geometric topologies get the spatial conflict colouring, with a
    conflict range of 3 × the decode reach (the rule the bit-level
    protocols use); synthetic ones the decode-graph colouring. *)

val cycle_rounds : Schedule.t -> int
(** Rounds per schedule cycle ([Schedule.cycle × Schedule.rounds_per_interval]). *)

type t

val create : Schedule.t -> Node.id -> Bitvec.t option -> t
(** Node [id]'s announcer, announcing the given value from the start. *)

val hold : t -> Bitvec.t -> unit
(** Hold [value] and start announcing it; a no-op once a value is held. *)

val value : t -> Bitvec.t option

val act : t -> int -> Msg.t Engine.action
(** The packet in the first round of each of my slots, until it has gone
    out [repeats] times; silence otherwise. *)

val next_active : t -> int -> int
(** The wakeup contract: without a value there is nothing to do (a
    reception arrives through the engine's touched set, which re-queries
    the contract after every poll); with one, wake at the first round of
    each of my slots until the repeats are spent, then never again. *)
