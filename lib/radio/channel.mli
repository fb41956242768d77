(** Per-receiver channel resolution with carrier sensing.

    The protocols only ever see the MAC-level observation triple of the
    paper's model: silence, a cleanly decoded message, or detectable
    activity (a collision, jamming noise, or an undecodable weak/lost
    packet).  Byzantine nodes can turn silence into activity but can never
    turn a transmission into silence — the asymmetry all the protocols are
    built on. *)

type 'a observation =
  | Silence  (** no energy on the channel *)
  | Clear of 'a  (** exactly one message decoded *)
  | Busy  (** energy sensed but nothing decoded (collision / jam / loss) *)

type params = {
  capture_ratio : float;
      (** A signal is captured (decoded despite interference) when its power
          is at least [capture_ratio] times the sum of all other sensed
          power.  [infinity] disables capture, matching the pessimistic
          collision rule of the analytic model. *)
  loss_prob : float;
      (** Probability that an otherwise decodable packet is lost; the energy
          is still sensed.  Models the packet losses the paper notes its
          simulation setup captures and its analysis does not. *)
}

val ideal : params
(** No capture, no loss: the analytic model's collision rule.  A receiver
    decodes iff exactly one sensed transmission reaches it and that one
    is decodable; any other sensed activity reads busy.  The sparse engine
    resolves this channel by counting coverage per receiver word instead
    of summing powers, wherever {!Graph.csr} built word entries for the
    topology (they exist only where the two rules agree). *)

val realistic : params
(** Capture ratio 3.0 (≈5 dB) and 1% packet loss: the WSNet-like setup. *)

(** Packed observation encoding for the engine's hot path: an observation
    is one int, [tag lor (slot lsl 2)] with tag 0 = silence, 1 = busy,
    2 = clear.  [slot] indexes the round's transmissions in global
    ascending-transmitter order; it is meaningful only for clear codes. *)
module Packed : sig
  val silence : int
  val busy : int
  val clear : int -> int
  (** [clear slot] encodes a decoded message at [slot]. *)

  val slot : int -> int
  val is_clear : int -> bool
  val is_activity : int -> bool
  (** [true] unless silence — the packed carrier-sense predicate. *)
end

val resolve_packed :
  params ->
  touched:int array ->
  n_touched:int ->
  sum_power:float array ->
  n_decodable:int array ->
  best_power:float array ->
  best_slot:int array ->
  out:int array ->
  unit
(** Resolve every receiver on the [touched] stack from the engine's flat
    per-receiver aggregates, writing one packed code per receiver into
    [out].  Entries for untouched receivers are left alone (the engine
    keeps them at [Packed.silence]).  Allocation-free. *)

val is_activity : 'a observation -> bool
(** [true] unless [Silence] — the carrier-sense predicate used throughout
    the 2Bit-Protocol. *)

val equal : ('a -> 'a -> bool) -> 'a observation -> 'a observation -> bool
val pp : (Format.formatter -> 'a -> unit) -> Format.formatter -> 'a observation -> unit
