(** The 1Hop-Protocol (Section 4, Level 1): a reliable, authenticated bit
    stream across one hop.

    Each scheduled interval, the sender runs one 2Bit exchange carrying
    [⟨parity, data⟩]: an alternating control bit plus one payload bit.  The
    parity bit (starting at 1) lets receivers tell a retransmission of the
    current bit from the next bit of the stream, and prevents sender
    silence from being read as a ⟨0,0⟩ transmission.  A failed 2Bit
    exchange is simply retried — so a Byzantine device must spend at least
    one broadcast per 6-round interval of delay it causes (the energy
    property of Theorem 2).

    The stream is infinite: framing (message boundaries) is handled by the
    layer above, and parity alternates with the global bit index so that
    frame boundaries cannot desynchronise sender and receivers.

    [Sender.skip_to] implements the square catch-up rule described in
    DESIGN.md: a meta-node member that detects (via parity activity plus
    its own committed bits) that the rest of its square has advanced moves
    its pointer forward rather than deadlocking the square. *)

val parity_of_index : int -> bool
(** Parity of the [i]-th stream bit (0-based): [true] for even [i]. *)

module Sender : sig
  type t

  val create : unit -> t
  val push : t -> bool -> unit
  (** Append a bit to the outgoing stream. *)

  val has_current : t -> bool
  (** Is there an unacknowledged bit to (re)transmit? *)

  val current_parity : t -> bool
  val current_data : t -> bool
  (** The current bit's parity and data; requires [has_current]. *)

  val arm : t -> Two_bit.t -> unit
  (** The own-slot rule: arm the 2Bit sender with the current
      [⟨parity, data⟩], or, once the stream is drained, the neighbourhood
      watch's blocker. *)

  val advance : t -> unit
  (** The current bit's 2Bit exchange succeeded. *)

  val skip_to : t -> int -> unit
  (** Move the send pointer forward to index [n] (never backwards). *)

  val sent : t -> int
  (** Number of stream bits confirmed so far. *)

  val total : t -> int
  (** Number of stream bits pushed so far. *)
end

module Receiver : sig
  type t

  val create : unit -> t

  val push_two_bit : t -> parity:bool -> data:bool -> unit
  (** Feed one successful 2Bit result; retransmissions (stale parity) are
      ignored. *)

  val received : t -> int
  val get : t -> int -> bool
  (** Bit [i] of the stream; raises [Invalid_argument] unless
      [0 <= i < received]. *)

  val bits : t -> Bitvec.t
  (** The whole stream received so far. *)

  val prefix : t -> int -> Bitvec.t
  (** First [n] bits; requires [received >= n]. *)
end
