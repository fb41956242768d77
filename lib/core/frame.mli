(** Wire frames of MultiPathRB.

    Each protocol message (Section 4/5) is a constant-size frame streamed
    bit-by-bit over the 1Hop-Protocol: a 2-bit type tag, the bit index, the
    message bit, and — for HEARD — the cause's location relative to the
    frame's sender (O(log R) bits, as in the paper's analysis).  Frames are
    self-delimiting within a stream: the tag determines the total length.

    Two deliberate deviations from the paper's terse description, both
    recorded in DESIGN.md:

    - COMMIT/HEARD frames carry an explicit bit index (⌈log₂ msg_len⌉
      bits).  The paper's implicit in-order numbering is exact on the
      analytic grid, but under continuous random deployments the cause
      location must be quantised, and quantisation collisions would corrupt
      the per-cause ordering (observed as wrong deliveries with zero
      adversaries).  SOURCE frames stay implicit — they come from a single
      totally-ordered stream.
    - Cause locations are exchanged as *lattice deltas*: positions snap to
      a canonical grid of pitch [coord_step], and the frame carries the
      integer difference between the cause's and the sender's lattice
      cells.  Every receiver can reconstruct the same canonical cell, so an
      origin has one identity network-wide (no vote splitting).
    - Frames whose payload is an odd number of bits carry one trailing
      1-bit of padding, keeping every frame — and hence every stream
      position at which a sender's queue can drain — even.  The 1Hop
      parity convention only lets receivers reject a silent interval
      outright at even stream positions (where the parity blip is due); a
      sender silently blocking its slot after draining at an odd position
      would instead be read as a transmitted (parity=0, data=0) pair,
      injecting a spurious 0-bit
      that misaligns every later frame (observed as wrong deliveries with
      zero adversaries on sparse explicit-graph topologies). *)

type t =
  | Source of bool  (** ⟨SOURCE, bᵢ⟩; the index is the stream order *)
  | Commit of { index : int; value : bool }  (** ⟨COMMIT, bᵢ⟩ *)
  | Heard of { index : int; value : bool; cause : int * int }
      (** ⟨HEARD, v, bᵢ⟩; [cause] is the lattice delta from the sender to
          the committing node [v] *)

type codec

val codec : msg_len:int -> coord_range:float -> coord_step:float -> codec
(** Cause deltas are clamped to [±coord_range] and quantised to
    [coord_step]; indices range over [\[0, msg_len)]. *)

val index_bits : codec -> int

val snap : codec -> Point.t -> int * int
(** Canonical lattice cell of a position. *)

val lattice_point : codec -> int * int -> Point.t
(** Centre of a lattice cell (the approximate position of an origin). *)

val encode : codec -> t -> Bitvec.t

val length_of_tag_bits : codec -> bool -> bool -> int
(** The total frame length given the first two stream bits, or [-1] for
    the unused tag (a malformed stream).  Allocates nothing. *)

val decode : codec -> Bitvec.t -> t option
(** Decode a full frame; [None] if the tag is invalid, the length is wrong
    for the tag, or the index is out of range. *)
