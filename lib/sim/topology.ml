type kind =
  | Radio of Propagation.t
  | Synthetic of { family : string; coord_range : float }

type t = { deployment : Deployment.t; kind : kind; graph : Graph.t }

(* [Propagation.received_power prop ~src ~dst] with [dx], [dy] the
   coordinate differences src − dst: the same arithmetic, so the same
   bits, on flat unboxed coordinates. *)
let[@inline] received_power prop dx dy =
  match prop with
  | Propagation.Friis { rx_range; _ } ->
    let d = sqrt ((dx *. dx) +. (dy *. dy)) in
    if d <= 0.0 then infinity
    else begin
      let ratio = rx_range /. d in
      ratio *. ratio
    end
  | Propagation.Disk (Point.L2, r) -> if sqrt ((dx *. dx) +. (dy *. dy)) <= r then 1.0 else 0.0
  | Propagation.Disk (Point.Linf, r) ->
    let ax = abs_float dx and ay = abs_float dy in
    if (if ax >= ay then ax else ay) <= r then 1.0 else 0.0

(* [received_power prop dx dy], or 0 (below every sensing threshold)
   without a square root where the pair's squared distance exceeds
   [far2]: the sense range widened by a relative 1e-9 and squared, so
   such a pair's power falls short of the threshold by far more than
   rounding, and every kept power and every decision is the full
   computation's.  Disk L∞ passes [far2 = infinity] and keeps its
   max-norm test. *)
let[@inline] sensed_power prop ~far2 dx dy =
  if (dx *. dx) +. (dy *. dy) > far2 then 0.0 else received_power prop dx dy

(* Node [s] is in node [r]'s row iff [s]'s power at [r] clears the sensing
   threshold.  Every such pair lies in neighbouring cells of the sense
   range, so both passes scan the slot ranges {!Cell_index.iter_cells}
   hands over, with no call per candidate, and both decide a pair by
   {!sensed_power}.  The decision reads only |dx| and |dy|, so it is
   exactly symmetric: the counting pass takes each unordered pair once,
   over half of every node's neighbourhood, and counts it in both rows,
   nodes in slot order (neighbouring nodes reuse the cells they read).
   The filling pass takes senders ascending over the whole
   neighbourhood, so a receiver meets its senders in ascending order and
   every row comes out sorted with no sort.  The flat arrays are the
   only per-link storage. *)
let build (deployment : Deployment.t) prop =
  let n = Deployment.size deployment in
  let reach = Propagation.sense_range prop in
  let cells = Cell_index.make ~side:(max 1e-6 reach) deployment in
  let { Cell_index.xs; ys; key; ids; slot_key; slot_x; slot_y; _ } = cells in
  let sense_thr = Propagation.sense_threshold prop in
  let far2 =
    match prop with
    | Propagation.Disk (Point.Linf, _) -> infinity
    | Propagation.Disk (Point.L2, _) | Propagation.Friis _ ->
      let far = reach *. (1.0 +. 1e-9) in
      far *. far
  in
  let in_off = Array.make (n + 1) 0 in
  let count i cell lo hi =
    let x = xs.(i) and y = ys.(i) and own = cell = key.(i) in
    for k = lo to hi - 1 do
      if slot_key.(k) = cell && ((not own) || ids.(k) > i) then begin
        let dx = x -. slot_x.(k) and dy = y -. slot_y.(k) in
        if sensed_power prop ~far2 dx dy >= sense_thr then begin
          let j = ids.(k) in
          in_off.(i + 1) <- in_off.(i + 1) + 1;
          in_off.(j + 1) <- in_off.(j + 1) + 1
        end
      end
    done
  in
  for k = 0 to n - 1 do
    Cell_index.iter_cells cells ids.(k) ~half:true count
  done;
  for i = 1 to n do
    in_off.(i) <- in_off.(i) + in_off.(i - 1)
  done;
  let in_peer = Array.make in_off.(n) 0 and in_pow = Array.create_float in_off.(n) in
  let cursor = Array.sub in_off 0 n in
  let fill s cell lo hi =
    let x = xs.(s) and y = ys.(s) in
    for k = lo to hi - 1 do
      if slot_key.(k) = cell && ids.(k) <> s then begin
        let power = sensed_power prop ~far2 (x -. slot_x.(k)) (y -. slot_y.(k)) in
        if power >= sense_thr then begin
          let r = ids.(k) in
          let j = cursor.(r) in
          in_peer.(j) <- s;
          in_pow.(j) <- power;
          cursor.(r) <- j + 1
        end
      end
    done
  in
  for s = 0 to n - 1 do
    Cell_index.iter_cells cells s ~half:false fill
  done;
  { deployment; kind = Radio prop; graph = Graph.of_incoming ~in_off ~in_peer ~in_pow }

let synthetic ~family deployment graph =
  if Deployment.size deployment <> Graph.size graph then
    invalid_arg "Topology.synthetic: deployment/graph size mismatch";
  (* The protocols size their geometric structures (voting windows, frame
     coordinate lattices, watch squares) from the radio range; an explicit
     graph has none, so the longest embedded edge stands in for it: every
     decodable peer is within this distance of its receiver.  The longest
     squared length takes one square root at the end: [sqrt] is monotone,
     so that is the same bits as the longest length. *)
  let nodes = deployment.Deployment.nodes in
  let { Graph.in_off; in_peer; in_pow; _ } = graph in
  let longest2 = ref 1.0 in
  for i = 0 to Graph.size graph - 1 do
    let p = nodes.(i).Node.pos in
    for k = in_off.(i) to in_off.(i + 1) - 1 do
      if in_pow.(k) >= 1.0 then begin
        let q = nodes.(in_peer.(k)).Node.pos in
        let dx = p.Point.x -. q.Point.x and dy = p.Point.y -. q.Point.y in
        let d2 = (dx *. dx) +. (dy *. dy) in
        if d2 > !longest2 then longest2 := d2
      end
    done
  done;
  { deployment; kind = Synthetic { family; coord_range = sqrt !longest2 }; graph }

let graph t = t.graph
let deployment t = t.deployment
let kind t = t.kind
let is_geometric t = match t.kind with Radio _ -> true | Synthetic _ -> false
let family t = match t.kind with Radio _ -> "radio" | Synthetic { family; _ } -> family

(* Range stand-ins for the protocol layers: under a radio model these are
   the propagation ranges; on an explicit graph both collapse to the
   longest embedded edge. *)
let sense_reach t =
  match t.kind with
  | Radio prop -> Propagation.sense_range prop
  | Synthetic { coord_range; _ } -> coord_range

let rx_reach t =
  match t.kind with
  | Radio prop -> Propagation.rx_range prop
  | Synthetic { coord_range; _ } -> coord_range

let position t id = t.deployment.Deployment.nodes.(id).Node.pos
let size t = Graph.size t.graph
