type t = { x : float; y : float }

let make x y = { x; y }

let dist_l2 a b =
  let dx = a.x -. b.x and dy = a.y -. b.y in
  sqrt ((dx *. dx) +. (dy *. dy))

let dist_linf a b = max (abs_float (a.x -. b.x)) (abs_float (a.y -. b.y))
let within_l2 r a b = dist_l2 a b <= r
let within_linf r a b = dist_linf a b <= r
let equal a b = a.x = b.x && a.y = b.y

type metric = L2 | Linf

let within = function L2 -> within_l2 | Linf -> within_linf
