(** The 2Bit-Protocol (Section 4, Level 1).

    Transmits two bits [⟨b1, b2⟩] from a sender to every honest receiver in
    its neighbourhood within one 6-round broadcast interval:

    - R1 (phase 0): sender transmits iff [b1 = 1];
    - R2 (phase 1): every receiver that sensed activity in R1 acknowledges;
    - R3 (phase 2): sender transmits iff [b2 = 1];
    - R4 (phase 3): receivers that sensed activity in R3 acknowledge;
    - R5 (phase 4): the sender vetoes if the acknowledgement pattern does
      not match what it sent;
    - R6 (phase 5): receivers relay any veto they sensed in R5 back to the
      sender.

    A receiver succeeds (with its bit estimates) iff R5 was silent; a
    sender succeeds iff it did not veto and R6 was silent.

    One {!t} per node plays whichever part the node has in the current
    interval, re-armed in place at each interval boundary by {!send},
    {!receive}, {!block} or {!idle}; the engine adapter drives {!act} then
    {!observe} for each phase.  Every part ignores observations in a phase
    where it transmitted (half-duplex radios).

    The blocker is the neighbourhood-watch part (Section 4, Level 2): a
    square member with nothing new to send vetoes any transmission it
    detects during its own square's data rounds, so data leaves a square
    only when every member has committed to it. *)

type t

val create : unit -> t
(** An idle machine. *)

val send : t -> b1:bool -> b2:bool -> unit
(** Arm as the sender of [⟨b1, b2⟩]. *)

val receive : t -> unit
(** Arm as a receiver. *)

val block : t -> unit
(** Arm as the neighbourhood watch's blocker. *)

val idle : t -> unit
(** Take no part: never transmit, ignore every observation, never
    finish. *)

val act : t -> phase:int -> bool
(** Whether to transmit in this phase (phases are 0–5).
    @raise Invalid_argument on any other phase. *)

val observe : t -> phase:int -> activity:bool -> unit
(** @raise Invalid_argument on a phase outside 0–5. *)

(** Flat accessors for per-round callers: nothing is boxed. *)

val sending : t -> bool
(** Armed by {!send} (and not idled since). *)

val finished : t -> bool
(** A sender has observed phase 5, a receiver phase 4; a blocker or an
    idle machine never finishes. *)

val succeeded : t -> bool
(** [finished] and no veto: for a receiver, R5 was silent; for a sender,
    it did not veto and R6 was silent. *)

val bit1 : t -> bool
val bit2 : t -> bool
(** A sender's armed pair; a receiver's (or blocker's) estimate, the
    activity it sensed in R1 and R3. *)

val engaged : t -> bool
(** Whether the rest of the interval may need this machine: always for a
    sender; for a receiver, once it has sensed data or a veto (it answers
    with acknowledgements or a relay); for a blocker, once it has sensed
    data (it vetoes); never when idle. *)
