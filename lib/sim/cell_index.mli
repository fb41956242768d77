(** Nodes bucketed by square cell, for range-limited neighbour enumeration.

    Node [i] lies in cell [(floor (x / side), floor (y / side))].  Every
    node within [side] of [i] (under either metric) lies in [i]'s cell or
    one of the 8 around it, so {!iter_cells} hands over a superset of
    [i]'s neighbours that the caller filters by distance.

    Cells are numbered row-major over the nodes' bounding box, and the
    nodes counting-sorted by cell number into flat slot arrays, so
    neighbouring cells' nodes sit close together in memory.  The table of
    bucket offsets stays O(n) words however many cells the map spans: a
    bounding box of at most 4n cells gets one bucket per cell, and a
    larger one (a map far wider than [side]) wraps its cell numbers
    modulo a power of two between n and 2n.  A wrapped bucket may hold
    several cells; every scan checks each slot's own cell number, so a
    shared bucket costs a comparison and never yields a node twice.
    Building the index allocates no per-cell or per-node block. *)

type t = private {
  xs : float array;  (** node id -> x coordinate, flat and unboxed *)
  ys : float array;
  key : int array;  (** node id -> its cell number *)
  stride : int;  (** cell numbers per row *)
  mask : int;  (** bucket count - 1 *)
  start : int array;  (** bucket offsets into the slot arrays, length buckets + 1 *)
  ids : Node.id array;  (** slot -> node id, grouped by bucket, ascending within one *)
  slot_key : int array;  (** slot -> its node's cell number *)
  slot_x : float array;  (** slot -> its node's coordinates, so a bucket scan reads contiguous memory *)
  slot_y : float array;
}

val make : side:float -> Deployment.t -> t
(** Index the deployment's nodes (ids must be their array positions) by
    cells of the given side. *)

val iter_cells : t -> Node.id -> half:bool -> (Node.id -> int -> int -> int -> unit) -> unit
(** [iter_cells t i ~half f] calls [f i key lo hi] for cells around [i]'s:
    cell [key]'s nodes are the slots [k] in [lo .. hi - 1] with
    [t.slot_key.(k) = key] (a wrapped bucket may hold other cells too),
    and [t.ids.(k)] is slot [k]'s node, [i] itself included where [key]
    is [i]'s own cell.  With [~half:false], [f] gets [i]'s cell and the 8
    around it; with [~half:true], [i]'s cell and the four at offsets
    (+1, 0), (-1, +1), (0, +1) and (+1, +1), so that of two distinct
    neighbouring cells exactly one is handed when the walk starts from
    the other.  [f] gets [i] so that one closure can serve every node,
    and scans each slot range itself: no call per candidate. *)
