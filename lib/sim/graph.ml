type link = { peer : Node.id; power : float }

type csr = { out_off : int array; out_rcv : int array; out_pow : float array }

type t = {
  sensed : link array array;
  rx : Node.id array array;
  mutable csr_cache : csr option;
}

let size t = Array.length t.rx

(* Outgoing links in CSR form: out_rcv/out_pow.(out_off.(i) ..
   out_off.(i+1) - 1) are the receivers that sense node i and the power
   they receive it at, so engine fan-out walks a flat slice instead of
   chasing list cells.  Receivers descending within each row — the order
   the engine's former cons-list representation iterated them in — so
   per-link loss draws and capture tie-breaks reproduce the reference
   results bit for bit.  Built on first demand and cached: repeated
   [Engine.run] calls over one topology (equivalence captures, warm
   campaign rounds, mobility epochs re-using a topology) stop paying the
   O(links) rebuild. *)
let csr t =
  match t.csr_cache with
  | Some c -> c
  | None ->
    let n = size t in
    let out_off = Array.make (n + 1) 0 in
    Array.iter
      (fun links ->
        Array.iter (fun { peer; _ } -> out_off.(peer + 1) <- out_off.(peer + 1) + 1) links)
      t.sensed;
    for i = 1 to n do
      out_off.(i) <- out_off.(i) + out_off.(i - 1)
    done;
    let links_total = out_off.(n) in
    let out_rcv = Array.make (max 1 links_total) 0 in
    let out_pow = Array.make (max 1 links_total) 0.0 in
    let cursor = Array.init n (fun i -> out_off.(i)) in
    for receiver = n - 1 downto 0 do
      Array.iter
        (fun { peer; power } ->
          let k = cursor.(peer) in
          out_rcv.(k) <- receiver;
          out_pow.(k) <- power;
          cursor.(peer) <- k + 1)
        t.sensed.(receiver)
    done;
    let c = { out_off; out_rcv; out_pow } in
    t.csr_cache <- Some c;
    c

(* Rows sorted by peer id: deterministic independent of construction order,
   and [can_decode] becomes a binary search. *)
let sort_rows sensed rx =
  Array.iter (fun row -> Array.sort (fun a b -> Int.compare a.peer b.peer) row) sensed;
  Array.iter (fun row -> Array.sort Int.compare row) rx

let validate t =
  let n = size t in
  if Array.length t.sensed <> n then invalid_arg "Graph: sensed/rx row count mismatch";
  let seen = Array.make (max 1 n) (-1) in
  Array.iteri
    (fun i row ->
      Array.iter
        (fun { peer; power } ->
          if peer < 0 || peer >= n then invalid_arg "Graph: link peer out of range";
          if peer = i then invalid_arg "Graph: self-loop";
          if power < 0.0 then invalid_arg "Graph: negative link power";
          if seen.(peer) = i then invalid_arg "Graph: duplicate link";
          seen.(peer) <- i)
        row)
    t.sensed;
  (* Every decodable peer must also be sensed: rx is the power >= 1.0
     sub-relation of sensed. *)
  Array.iteri
    (fun i row ->
      Array.iter
        (fun peer ->
          if not (Array.exists (fun l -> l.peer = peer) t.sensed.(i)) then
            invalid_arg "Graph: rx edge missing from sensed")
        row)
    t.rx;
  t

let make ~sensed ~rx =
  let sensed = Array.map Array.copy sensed and rx = Array.map Array.copy rx in
  sort_rows sensed rx;
  validate { sensed; rx; csr_cache = None }

(* Decode-only graphs (every generated family): sensing and decoding
   coincide, at the normalised decode power. *)
let of_rx rx =
  let sensed = Array.map (fun row -> Array.map (fun peer -> { peer; power = 1.0 }) row) rx in
  make ~sensed ~rx

let of_edges ~n edges =
  if n < 0 then invalid_arg "Graph.of_edges: negative node count";
  let adj = Array.make (max 1 n) [] in
  List.iter
    (fun (u, v) ->
      if u < 0 || u >= n || v < 0 || v >= n then invalid_arg "Graph.of_edges: endpoint out of range";
      if u = v then invalid_arg "Graph.of_edges: self-loop";
      adj.(u) <- v :: adj.(u);
      adj.(v) <- u :: adj.(v))
    edges;
  let rx =
    Array.init n (fun i -> Array.of_list (List.sort_uniq Int.compare adj.(i)))
  in
  of_rx rx

(* [rx] rows are sorted ascending, so membership is a binary search. *)
let can_decode t ~rx:receiver ~tx =
  let row = t.rx.(receiver) in
  let rec search lo hi =
    lo < hi
    &&
    let mid = (lo + hi) / 2 in
    let v = row.(mid) in
    if v = tx then true else if v < tx then search (mid + 1) hi else search lo mid
  in
  search 0 (Array.length row)

let degree t i = Array.length t.rx.(i)

let hops_from t src =
  let n = size t in
  let dist = Array.make n (-1) in
  let queue = Queue.create () in
  dist.(src) <- 0;
  Queue.add src queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    Array.iter
      (fun v ->
        if dist.(v) < 0 then begin
          dist.(v) <- dist.(u) + 1;
          Queue.add v queue
        end)
      t.rx.(u)
  done;
  dist

let hop_diameter_from t src = Array.fold_left max 0 (hops_from t src)

let reachable_from t src =
  Array.fold_left (fun acc d -> if d >= 0 then acc + 1 else acc) 0 (hops_from t src)

let is_connected t = size t = 0 || reachable_from t 0 = size t

let avg_degree t =
  let n = size t in
  if n = 0 then 0.0
  else begin
    let total = Array.fold_left (fun acc a -> acc + Array.length a) 0 t.rx in
    float_of_int total /. float_of_int n
  end

let max_degree t = Array.fold_left (fun acc row -> max acc (Array.length row)) 0 t.rx

let is_symmetric t =
  let n = size t in
  let ok = ref true in
  for i = 0 to n - 1 do
    Array.iter (fun j -> if not (can_decode t ~rx:j ~tx:i) then ok := false) t.rx.(i)
  done;
  !ok
