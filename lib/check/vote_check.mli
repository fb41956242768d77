(** Bounded model checking of the multi-hop voting layer.

    Where {!Model_check} exhausts single-hop adversary schedules (Theorems
    1 and 2), this checker exhausts Byzantine {e evidence} patterns against
    the two voting rules of the multi-hop level:

    - [check_multi_path]: MultiPathRB's commit rule (Section 4, Level 2;
      optimal resilience [t < R(2R+1)/2]).  For a concrete neighbourhood of
      radius [R] in 1–3 it enumerates every composition of up to the
      analytic tolerance [t] Byzantine voters over six behaviour classes —
      in-window fake COMMITs, double voters (both values from one origin),
      verbatim replays, window-rim and out-of-window origins, and HEARD
      items with an unreachable witness — against honest clusters at and
      just below quorum size, in two interleavings, with a replayed honest
      item.  After every evidence arrival it asserts:
      {ul
      {- [mp-votes]: the incremental {!Voting.Index} origin counts equal
         the full-scan [distinct_origins];}
      {- [mp-agreement]: [Index.decide], {!Voting.quorum} and the
         independently derived {!Voting.Reference.quorum} agree, for both
         values;}
      {- [mp-no-forgery]: no false-value quorum ever forms — at most [t]
         Byzantine origins exist, and the rule needs [t + 1];}
      {- [mp-quorum-reached]: with [t + 1] honest co-located origins the
         final decision is positive (the evidence suffices).}}

    - [check_neighbor_watch]: NeighborWatchRB's per-bit frontier vote
      (square veto; 1-voting and the 2-voting variant).  It drives the
      {e actual} protocol kernel {!Neighbor_watch.Vote} — the monotone
      agreement pointers, once-per-frontier tally and source override —
      over every assignment of adjacent-square streams to liars (all
      bounded-length fake bitstrings) and honest relays (prefixes of the
      true message), with and without a direct source stream, in plain and
      replayed push orders, asserting:
      {ul
      {- [nw-agreement]: [Vote.poll] equals a from-scratch reference
         recomputation of the frontier rule at every step;}
      {- [nw-veto]: with fewer fully-Byzantine streams than [votes], the
         committed prefix never deviates from the true message;}
      {- [nw-delivery]: with fewer liars than [votes] and a full honest
         source stream (or [votes] full honest square streams), the whole
         message commits;}
      {- [nw-bound-arithmetic]: the paper's per-neighbourhood tolerance
         keeps the number of fully-corruptible squares below [votes]
         ([⌊t / ⌈R/2⌉²⌋ < votes] for every [t] up to the bound).}}

    [Pass] reports the number of enumerated adversary configurations and
    the number of per-step invariant checks; [Fail] carries a structured
    counterexample trace.  The [mp_seeded] / [nw_seeded] implementations
    plant a quorum off-by-one that the checker must refute
    ([--seed-violation] in the CLI). *)

type step = { index : int; description : string }

type counterexample = {
  protocol : string;  (** ["MultiPathRB"] or ["NeighborWatchRB"] *)
  radius : int;
  invariant : string;  (** the violated invariant's name *)
  detail : string;  (** human-readable description of the violation *)
  setup : string;  (** the enumerated configuration *)
  trace : step list;  (** evidence/stream events up to the violation *)
}

type outcome = Pass of { configurations : int; states : int } | Fail of counterexample

(** The decision procedures are pluggable so that tests (and the
    [--seed-violation] CLI flag) can verify the checker catches broken
    quorum logic. *)

type mp_impl = {
  mp_name : string;
  mp_decide : Voting.Index.t -> radius:float -> need:int -> value:bool -> bool;
}

val mp_reference : mp_impl
(** The real [Voting.Index.decide]. *)

val mp_seeded : mp_impl
(** [Index.decide] called with [need - 1]: the classic quorum off-by-one.
    The checker must fail ([mp-agreement] or [mp-no-forgery]). *)

type nw_impl = { nw_name : string; nw_create : votes:int -> Neighbor_watch.Vote.t }

val nw_reference : nw_impl
(** The real {!Neighbor_watch.Vote} kernel. *)

val nw_seeded : nw_impl
(** The kernel built with [votes - 1]: commits on one vote too few.  The
    checker must fail ([nw-agreement] or [nw-veto]). *)

val check_multi_path : ?impl:mp_impl -> radius:int -> unit -> outcome
(** Exhaust Byzantine evidence patterns at [radius] (1–3) up to the
    analytic tolerance [Bounds.multi_path_tolerance]. *)

val check_neighbor_watch : ?impl:nw_impl -> votes:int -> radius:int -> unit -> outcome
(** Exhaust liar stream patterns for the [votes]-voting protocol variant
    (1 or 2); [radius] selects the tolerance for the arithmetic bound. *)

val counterexample_to_string : counterexample -> string
