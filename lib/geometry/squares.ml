type t = { side : float; cols : int; rows : int }

let make ~side ~width ~height =
  if side <= 0.0 || width <= 0.0 || height <= 0.0 then invalid_arg "Squares.make";
  let cols = max 1 (int_of_float (ceil (width /. side))) in
  let rows = max 1 (int_of_float (ceil (height /. side))) in
  { side; cols; rows }

let side t = t.side
let count t = t.cols * t.rows
let cols t = t.cols
let rows t = t.rows

(* Int-only: [Stdlib.max] and [min] are polymorphic and compare through a
   C call, once per node in NeighborWatchRB's set-up. *)
let clamp (lo : int) hi v = if v < lo then lo else if v > hi then hi else v

let square_of t (p : Point.t) =
  let cx = clamp 0 (t.cols - 1) (int_of_float (p.x /. t.side)) in
  let cy = clamp 0 (t.rows - 1) (int_of_float (p.y /. t.side)) in
  (cy * t.cols) + cx

let coords t id = (id mod t.cols, id / t.cols)

let id_of_coords t (cx, cy) =
  if cx < 0 || cx >= t.cols || cy < 0 || cy >= t.rows then None else Some ((cy * t.cols) + cx)

let neighbors t id =
  let cx, cy = coords t id in
  let candidates =
    [ (-1, -1); (0, -1); (1, -1); (-1, 0); (1, 0); (-1, 1); (0, 1); (1, 1) ]
  in
  List.filter_map (fun (dx, dy) -> id_of_coords t (cx + dx, cy + dy)) candidates

let analytic_side ~radius = ceil (radius /. 2.0)
let simulation_side ~radius = radius /. 3.0
