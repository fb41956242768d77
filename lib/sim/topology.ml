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

(* Node [s] is in node [r]'s row iff [s]'s power at [r] clears the sensing
   threshold.  Every such pair lies in neighbouring cells of the sense
   range, so each pass walks {!Cell_index.iter_near} of every sender:
   [visit None] counts each receiver's links into [in_off], [visit rows]
   writes each link at its receiver's cursor.  The counting pass takes
   senders in slot order (neighbouring senders reuse the cells they
   read); the filling pass takes them ascending, so a receiver meets its
   senders in ascending order and every row comes out sorted with no
   sort.  The flat arrays are the only per-link storage. *)
let build (deployment : Deployment.t) prop =
  let n = Deployment.size deployment in
  let cells = Cell_index.make ~side:(max 1e-6 (Propagation.sense_range prop)) deployment in
  let { Cell_index.xs; ys; ids; slot_x; slot_y; _ } = cells in
  let sense_thr = Propagation.sense_threshold prop in
  let in_off = Array.make (n + 1) 0 in
  let visit rows s k =
    let power = received_power prop (xs.(s) -. slot_x.(k)) (ys.(s) -. slot_y.(k)) in
    if power >= sense_thr then begin
      let r = ids.(k) in
      match rows with
      | None -> in_off.(r + 1) <- in_off.(r + 1) + 1
      | Some (cursor, in_peer, in_pow) ->
        let j = cursor.(r) in
        in_peer.(j) <- s;
        in_pow.(j) <- power;
        cursor.(r) <- j + 1
    end
  in
  let count s k = visit None s k in
  for k = 0 to n - 1 do
    Cell_index.iter_near cells ids.(k) count
  done;
  for i = 1 to n do
    in_off.(i) <- in_off.(i) + in_off.(i - 1)
  done;
  let in_peer = Array.make in_off.(n) 0 and in_pow = Array.create_float in_off.(n) in
  let rows = Some (Array.sub in_off 0 n, in_peer, in_pow) in
  let fill s k = visit rows s k in
  for s = 0 to n - 1 do
    Cell_index.iter_near cells s fill
  done;
  { deployment; kind = Radio prop; graph = Graph.of_incoming ~in_off ~in_peer ~in_pow }

let synthetic ~family deployment graph =
  if Deployment.size deployment <> Graph.size graph then
    invalid_arg "Topology.synthetic: deployment/graph size mismatch";
  (* The protocols size their geometric structures (voting windows, frame
     coordinate lattices, watch squares) from the radio range; an explicit
     graph has none, so the longest embedded edge stands in for it: every
     decodable peer is within this distance of its receiver. *)
  let nodes = deployment.Deployment.nodes in
  let coord_range = ref 1.0 in
  for i = 0 to Graph.size graph - 1 do
    Graph.iter_rx graph i (fun j ->
        let d = Point.dist_l2 nodes.(i).Node.pos nodes.(j).Node.pos in
        if d > !coord_range then coord_range := d)
  done;
  { deployment; kind = Synthetic { family; coord_range = !coord_range }; graph }

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
