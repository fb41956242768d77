type link = { peer : Node.id; power : float }

type words = {
  word_off : int array;
  word_idx : int array;
  word_sensed : int array;
  word_dec : int array;
}

type csr = {
  out_off : int array;
  out_rcv : int array;
  out_pow : float array;
  words : words option;
}

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
   O(links) rebuild.

   The same rows as word entries: each run of a row's receivers that share
   a [Bitvec.bits_per_word]-id word becomes one (word, sensed mask,
   decodable mask) entry, so a collision-only fan-in ORs one mask per
   entry instead of summing one power per link.  An infinite power
   (co-located Friis nodes) goes in the sensed mask only: the float rule
   reads a lone one as busy, since infinity minus itself is NaN.  The
   entries are built only where both hold:
   - the density gate: at most half as many entries as links.  Sparse
     rows (expanders, large low-degree maps) keep the link walk, and their
     heap carries no second copy of the rows;
   - the exactness guard.  The count rule (clear iff exactly one sensed
     link, and it decodes) equals [Channel.resolve_packed]'s float rule
     only if no float sum can swallow a sensed power.  Summing k <= d
     powers of at most [p_max] errs by at most (k-1)k · p_max · 2^-52,
     and the float rule calls an interference of 1e-12 or less zero, so
     the smallest sensed power must exceed 1e-12 plus d² · p_max · 2^-52
     (the + 2 is slack for the final subtraction's rounding). *)
let csr t =
  match t.csr_cache with
  | Some c -> c
  | None ->
    let n = size t and bits = Bitvec.bits_per_word in
    (* Pass 1: row lengths and entries per row (a row meets its receivers
       in word order, so an entry starts wherever the word changes). *)
    let out_off = Array.make (n + 1) 0 and word_off = Array.make (n + 1) 0 in
    let last_word = Array.make (max 1 n) (-1) in
    for receiver = 0 to n - 1 do
      let row = t.sensed.(receiver) and w = receiver / bits in
      for j = 0 to Array.length row - 1 do
        let peer = row.(j).peer in
        out_off.(peer + 1) <- out_off.(peer + 1) + 1;
        if last_word.(peer) <> w then begin
          last_word.(peer) <- w;
          word_off.(peer + 1) <- word_off.(peer + 1) + 1
        end
      done
    done;
    for i = 1 to n do
      out_off.(i) <- out_off.(i) + out_off.(i - 1);
      word_off.(i) <- word_off.(i) + word_off.(i - 1)
    done;
    let links = out_off.(n) in
    let dense = 2 * word_off.(n) <= links in
    let entries = if dense then word_off.(n) else 0 in
    (* Pass 2: fill the rows, receivers descending, and the entries where
       the gate passed. *)
    let out_rcv = Array.make (max 1 links) 0 in
    let out_pow = Array.make (max 1 links) 0.0 in
    let word_idx = Array.make (max 1 entries) 0 in
    let word_sensed = Array.make (max 1 entries) 0 in
    let word_dec = Array.make (max 1 entries) 0 in
    let cursor = Array.init n (fun i -> out_off.(i)) in
    (* [entry.(i)]: the entry of row i being filled. *)
    let entry = if dense then Array.init n (fun i -> word_off.(i) - 1) else [||] in
    Array.fill last_word 0 (Array.length last_word) (-1);
    for receiver = n - 1 downto 0 do
      let w = receiver / bits and bit = 1 lsl (receiver mod bits) in
      let row = t.sensed.(receiver) in
      for j = 0 to Array.length row - 1 do
        let { peer; power } = row.(j) in
        let k = cursor.(peer) in
        out_rcv.(k) <- receiver;
        out_pow.(k) <- power;
        cursor.(peer) <- k + 1;
        if dense then begin
          if last_word.(peer) <> w then begin
            last_word.(peer) <- w;
            entry.(peer) <- entry.(peer) + 1;
            word_idx.(entry.(peer)) <- w
          end;
          let e = entry.(peer) in
          word_sensed.(e) <- word_sensed.(e) lor bit;
          if power >= 1.0 && power < infinity then word_dec.(e) <- word_dec.(e) lor bit
        end
      done
    done;
    (* The guard, over the filled powers. *)
    let exact () =
      let d = Array.fold_left (fun acc row -> max acc (Array.length row)) 0 t.sensed in
      let p_min = ref infinity and p_max = ref 0.0 in
      for k = 0 to links - 1 do
        let power = out_pow.(k) in
        if power < !p_min then p_min := power;
        if power > !p_max && power < infinity then p_max := power
      done;
      !p_min > 1e-12 +. (float_of_int ((d * d) + 2) *. !p_max *. epsilon_float)
    in
    let words =
      if dense && exact () then Some { word_off; word_idx; word_sensed; word_dec } else None
    in
    let c = { out_off; out_rcv; out_pow; words } in
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
          if Float.is_nan power then invalid_arg "Graph: NaN link power";
          if power <= 0.0 then invalid_arg "Graph: non-positive link power";
          if seen.(peer) = i then invalid_arg "Graph: duplicate link";
          seen.(peer) <- i)
        row)
    t.sensed;
  (* rx is exactly the power >= 1.0 part of sensed: the engine decodes by
     power and [can_decode] reads rx, so the two must agree. *)
  Array.iteri
    (fun i row ->
      let links = t.sensed.(i) in
      Array.iteri
        (fun k peer ->
          if k > 0 && row.(k - 1) = peer then invalid_arg "Graph: duplicate rx edge";
          match Array.find_opt (fun l -> l.peer = peer) links with
          | None -> invalid_arg "Graph: rx edge missing from sensed"
          | Some l -> if l.power < 1.0 then invalid_arg "Graph: rx edge below decode power")
        row;
      let decodable =
        Array.fold_left (fun acc l -> if l.power >= 1.0 then acc + 1 else acc) 0 links
      in
      if decodable <> Array.length row then invalid_arg "Graph: decodable link missing from rx")
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
