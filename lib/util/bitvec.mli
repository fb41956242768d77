(** Immutable bit vectors.

    The broadcast payloads of the paper are short bit strings (4–5 bits in
    the experiments); protocols transmit and authenticate them one bit at a
    time.  This module is the common representation for messages, frames and
    digests. *)

type t

val length : t -> int
val get : t -> int -> bool
val create : int -> bool -> t
val init : int -> (int -> bool) -> t
val of_list : bool list -> t
val to_list : t -> bool list
val of_string : string -> t
(** [of_string "1011"] parses a bit pattern.  Raises [Invalid_argument] on
    characters other than '0' and '1'. *)

val to_string : t -> string
val of_int : width:int -> int -> t
(** Big-endian encoding of a non-negative integer in [width] bits. *)

val to_int : t -> int
(** Big-endian decoding; requires [length <= 62]. *)

val append : t -> t -> t
val concat : t list -> t
val sub : t -> pos:int -> len:int -> t
val equal : t -> t -> bool
val random : Rng.t -> int -> t
val empty : t
val fold_left : ('a -> bool -> 'a) -> 'a -> t -> 'a

val digest : size:int -> t -> t
(** [digest ~size m] is a deterministic non-cryptographic [size]-bit digest
    of [m] (a mixed fold), used by the dual-mode protocol of Section 1
    ("Interpretation"): the full message goes over the fast epidemic channel
    and only this digest over the authenticated channel. *)

(** {2 Word-level helpers}

    The representation packs {!bits_per_word} bits to a word; the engine
    packs its own id sets the same way. *)

val lowest_bit : int -> int
(** [lowest_bit w] is the index of the lowest set bit of the non-zero word
    [w] (bits [0 .. bits_per_word - 1]); [w land (w - 1)] clears it.  The
    building block of every ascending walk over raw words. *)

val bits_per_word : int
(** Bits packed per word (62). *)
