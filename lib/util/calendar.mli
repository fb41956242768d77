(** Calendar queue: an int-keyed binary min-heap of int payloads.

    Backs the wakeup-driven engine loop ([Engine.run ~mode:`Sparse]): keys
    are round numbers, payloads are machine ids.  The heap tolerates
    duplicate entries for one payload, so a schedule update is a plain
    O(log n) push, never a decrease-key; the engine pushes only when a
    machine's wake round moves.  Among entries with equal keys the pop
    order is unspecified. *)

type t

val create : ?capacity:int -> unit -> t
(** Fresh empty queue; [capacity] (default 16) presizes the backing
    arrays, which grow by doubling as needed and never shrink. *)

val is_empty : t -> bool
val size : t -> int

val add : t -> int -> int -> unit
(** [add t key value] pushes an entry. *)

val min_key : t -> int
(** Smallest key currently queued.  @raise Invalid_argument when empty. *)

val pop_min : t -> int
(** Remove one entry with the smallest key and return its payload.
    @raise Invalid_argument when empty. *)

