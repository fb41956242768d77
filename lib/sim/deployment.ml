type t = { width : float; height : float; nodes : Node.t array }

let grid ~width ~height =
  assert (width > 0 && height > 0);
  let nodes =
    Array.init (width * height) (fun i ->
        let x = i mod width and y = i / width in
        Node.make i (Point.make (float_of_int x) (float_of_int y)))
  in
  { width = float_of_int (width - 1); height = float_of_int (height - 1); nodes }

let uniform rng ~n ~width ~height =
  assert (n > 0 && width > 0.0 && height > 0.0);
  let nodes =
    Array.init n (fun i -> Node.make i (Point.make (Rng.float rng width) (Rng.float rng height)))
  in
  { width; height; nodes }

let clustered rng ~n ~clusters ~stddev ~width ~height =
  assert (n > 0 && clusters > 0 && stddev >= 0.0);
  let centres =
    Array.init clusters (fun _ -> Point.make (Rng.float rng width) (Rng.float rng height))
  in
  let clamp hi v = max 0.0 (min hi v) in
  let nodes =
    Array.init n (fun i ->
        let c = Rng.pick rng centres in
        let x = clamp width (Rng.normal rng ~mean:c.Point.x ~stddev) in
        let y = clamp height (Rng.normal rng ~mean:c.Point.y ~stddev) in
        Node.make i (Point.make x y))
  in
  { width; height; nodes }

let density t =
  let area = max 1e-9 (t.width *. t.height) in
  float_of_int (Array.length t.nodes) /. area

let size t = Array.length t.nodes

let closest_to t p =
  assert (Array.length t.nodes > 0);
  let best = ref 0 and best_d = ref infinity in
  Array.iter
    (fun (n : Node.t) ->
      let d = Point.dist_l2 n.pos p in
      if d < !best_d then begin
        best := n.id;
        best_d := d
      end)
    t.nodes;
  !best

let center_node t = closest_to t (Point.make (t.width /. 2.0) (t.height /. 2.0))
