(** Bounded model checking of the protocol core.

    Exhaustively enumerates every Byzantine interference pattern — a
    transmit/silence choice per 6-round phase, within a broadcast budget β —
    over the single-hop analysis model of the paper (a clique neighbourhood
    on an ideal channel, half-duplex radios) and asserts the safety theorems
    as machine-checked invariants:

    - [check_two_bit]: one 2Bit frame (Section 4, Theorem 1).  Invariants:
      {ul
      {- [receiver-no-forgery]: a receiver that accepts ⟨b1,b2⟩ accepts
         exactly what the sender sent;}
      {- [sender-receiver-agreement]: a sender that reports success implies
         every honest receiver succeeded (with the correct bits);}
      {- [unattacked-frame-succeeds]: destroying a frame costs the
         adversary at least one broadcast (the energy property);}
      {- [*-outcome-known]: every machine resolves by the end of the
         frame.}}
    - [check_one_hop]: a full 1Hop stream of every message of a given
      length, run for [msg_len + β] intervals (Theorem 2).  The sender is
      armed each interval by {!One_hop.Sender.arm}, the rule the protocols
      run: the 2Bit sender while bits remain, the neighbourhood-watch
      blocker once the stream is drained.  Invariants: [frame-no-forgery]
      and [blocked-frame-silent-alias] per interval, [stream-prefix]
      (every accepted bit is the source's bit, at the right index) and
      [stream-delivery] (an adversary spending at most β broadcasts cannot
      prevent delivery within [msg_len + β] intervals).

    The enumeration is exhaustive for the given budget: [Pass] reports how
    many adversary configurations were covered, [Fail] carries a structured
    round-by-round counterexample trace. *)

type phase_event = {
  interval : int;  (** broadcast interval (0 for single-frame checks) *)
  phase : int;  (** 0–5 within the interval *)
  sender_tx : bool;
  receiver_tx : bool array;
  adversary_tx : bool;
  heard : bool array;  (** resolved channel activity; index 0 = sender *)
}

type counterexample = {
  invariant : string;  (** the violated invariant's name *)
  detail : string;  (** human-readable description of the violation *)
  setup : string;  (** message bits / receiver count of the configuration *)
  budget : int;
  spent : int;  (** adversary broadcasts actually used *)
  trace : phase_event list;  (** the full schedule up to the violation *)
}

type outcome = Pass of { configurations : int } | Fail of counterexample

type impl
(** The honest parties: every one is the protocol's own {!Two_bit.t}; a
    receiver senses each phase's channel activity through the [impl].
    Pluggable so that tests (and the [--seed-violation] CLI flag) can
    verify the checker catches a broken protocol machine. *)

val reference : impl
(** Receivers sense every phase, as the protocols run them. *)

val faulty_skip_veto : impl
(** A receiver deaf during the veto round R5 — a seeded violation the
    checker must refute (it accepts bits the sender cancelled). *)

val check_two_bit : ?impl:impl -> ?receivers:int -> budget:int -> unit -> outcome
(** Check one 2Bit frame for all 4 bit pairs, [receivers] honest receivers
    (default 2) and every adversary pattern of at most [budget]
    broadcasts. *)

val check_one_hop : ?impl:impl -> ?msg_len:int -> budget:int -> unit -> outcome
(** Check the 1Hop stream for every message of [msg_len] bits (default 2)
    against every adversary schedule of at most [budget] broadcasts over
    [msg_len + budget] intervals. *)

val counterexample_to_string : counterexample -> string
