type t = {
  xs : float array;
  ys : float array;
  key : int array;
  stride : int;
  mask : int;
  start : int array;
  ids : Node.id array;
  slot_key : int array;
  slot_x : float array;
  slot_y : float array;
}

(* The floor of the scaled coordinate, not [int_of_float]'s truncation
   toward zero: truncation would merge (-side, 0) with [0, side) into one
   double-width cell on each axis for deployments that extend into
   negative coordinates. *)
let cell side v = int_of_float (Float.floor (v /. side))

let rec pow2_at_least m v = if m >= v then m else pow2_at_least (2 * m) v

let make ~side (deployment : Deployment.t) =
  let nodes = deployment.Deployment.nodes in
  let n = Array.length nodes in
  let xs = Array.create_float n and ys = Array.create_float n in
  let cx = Array.make n 0 and cy = Array.make n 0 in
  Array.iteri
    (fun i (node : Node.t) ->
      let p = node.Node.pos in
      xs.(i) <- p.Point.x;
      ys.(i) <- p.Point.y;
      cx.(i) <- cell side p.Point.x;
      cy.(i) <- cell side p.Point.y)
    nodes;
  (* Cells are numbered row-major over the nodes' bounding box plus a
     border one cell wide (so every neighbour of a node's cell has a
     non-negative number); the row stride is odd, so every column of a
     wrapped table below meets every bucket. *)
  let x0 = Array.fold_left Int.min max_int cx and y0 = Array.fold_left Int.min max_int cy in
  let stride = (Array.fold_left Int.max min_int cx - x0 + 3) lor 1
  and rows = Array.fold_left Int.max min_int cy - y0 + 3 in
  let key = Array.init n (fun i -> cx.(i) - x0 + 1 + (stride * (cy.(i) - y0 + 1))) in
  (* A box of at most 4n cells gets a bucket per cell; a larger one wraps
     onto n to 2n buckets, cell number modulo the bucket count. *)
  let buckets =
    if n > 0 && float_of_int stride *. float_of_int rows <= 4.0 *. float_of_int n then
      pow2_at_least 1 (stride * rows)
    else pow2_at_least 1 n
  in
  let mask = buckets - 1 in
  (* Counting sort by bucket; ids ascend within a bucket, and each slot
     carries its node's cell and coordinates, so a bucket scan reads
     contiguous memory. *)
  let start = Array.make (buckets + 1) 0 in
  Array.iter (fun k -> start.((k land mask) + 1) <- start.((k land mask) + 1) + 1) key;
  for b = 1 to buckets do
    start.(b) <- start.(b) + start.(b - 1)
  done;
  let fill = Array.sub start 0 buckets in
  let ids = Array.make n 0 and slot_key = Array.make n 0 in
  let slot_x = Array.create_float n and slot_y = Array.create_float n in
  for i = 0 to n - 1 do
    let b = key.(i) land mask in
    let k = fill.(b) in
    ids.(k) <- i;
    slot_key.(k) <- key.(i);
    slot_x.(k) <- xs.(i);
    slot_y.(k) <- ys.(i);
    fill.(b) <- k + 1
  done;
  { xs; ys; key; stride; mask; start; ids; slot_key; slot_x; slot_y }

(* Row-major over the 3x3 block, so the last five offsets are [i]'s own
   cell and the half of its neighbours that [~half] keeps. *)
let iter_cells t i ~half f =
  for c = (if half then 4 else 0) to 8 do
    let key = t.key.(i) + (c mod 3) - 1 + (t.stride * ((c / 3) - 1)) in
    let b = key land t.mask in
    f i key t.start.(b) t.start.(b + 1)
  done
