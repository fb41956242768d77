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

type t = { in_off : int array; in_peer : Node.id array; in_pow : float array; csr : csr }

let size t = Array.length t.in_off - 1
let csr t = t.csr

(* The engine's fan-out rows: out_rcv/out_pow.(out_off.(i) ..
   out_off.(i+1) - 1) are the receivers that sense node i and the power
   they receive it at, ascending, so engine fan-out walks a flat slice.
   Built once with the graph: repeated [Engine.run] calls over one
   topology (equivalence captures, warm campaign rounds, mobility epochs
   re-using a topology) share it.  Where every link r <- s has its twin
   s <- r at an equal power, as under any distance-only channel, the
   rows are their own transposition and are shared, not copied.

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

(* The [entries] word entries of ascending out-rows: a new entry starts
   where a receiver passes the current word's end, one division per
   entry.  An entry's masks are gathered in local variables and stored
   when it closes. *)
let word_entries ~out_off ~out_rcv ~out_pow entries =
  let n = Array.length out_off - 1 and bits = Bitvec.bits_per_word in
  let word_off = Array.make (n + 1) 0 and word_idx = Array.make (max 1 entries) 0 in
  let word_sensed = Array.make (max 1 entries) 0 and word_dec = Array.make (max 1 entries) 0 in
  let e = ref (-1) in
  for i = 0 to n - 1 do
    let base = ref 0 and stop = ref 0 and sensed = ref 0 and dec = ref 0 in
    for k = out_off.(i) to out_off.(i + 1) - 1 do
      let receiver = out_rcv.(k) and power = out_pow.(k) in
      if receiver >= !stop then begin
        if !sensed <> 0 then begin
          word_sensed.(!e) <- !sensed;
          word_dec.(!e) <- !dec
        end;
        let w = receiver / bits in
        incr e;
        word_idx.(!e) <- w;
        base := w * bits;
        stop := !base + bits;
        sensed := 0;
        dec := 0
      end;
      (* Branch-free: whether a sensed link also decodes is a coin toss
         to the branch predictor. *)
      let bit = 1 lsl (receiver - !base) in
      let decodes = Bool.to_int (power >= 1.0) land Bool.to_int (power < infinity) in
      sensed := !sensed lor bit;
      dec := !dec lor (bit land -decodes)
    done;
    if !sensed <> 0 then begin
      word_sensed.(!e) <- !sensed;
      word_dec.(!e) <- !dec
    end;
    word_off.(i + 1) <- !e + 1
  done;
  { word_off; word_idx; word_sensed; word_dec }

(* Asymmetric rows, transposed, with their word-entry count: pass 1
   sizes the out-rows and counts their entries (receivers ascending meet
   each out-row's receivers in word order, so an entry starts wherever
   the word changes); pass 2 fills them, receivers ascending again, so
   every out-row ascends. *)
let transpose ~in_off ~in_peer ~in_pow =
  let n = Array.length in_off - 1 and bits = Bitvec.bits_per_word in
  let out_off = Array.make (n + 1) 0 and last_word = Array.make (max 1 n) (-1) in
  let entries = ref 0 in
  for receiver = 0 to n - 1 do
    let w = receiver / bits in
    for k = in_off.(receiver) to in_off.(receiver + 1) - 1 do
      let peer = in_peer.(k) in
      out_off.(peer + 1) <- out_off.(peer + 1) + 1;
      if last_word.(peer) <> w then begin
        last_word.(peer) <- w;
        incr entries
      end
    done
  done;
  for i = 1 to n do
    out_off.(i) <- out_off.(i) + out_off.(i - 1)
  done;
  let links = out_off.(n) in
  let out_rcv = Array.make (max 1 links) 0 and out_pow = Array.make (max 1 links) 0.0 in
  let cursor = Array.sub out_off 0 n in
  for receiver = 0 to n - 1 do
    for j = in_off.(receiver) to in_off.(receiver + 1) - 1 do
      let peer = in_peer.(j) in
      let k = cursor.(peer) in
      out_rcv.(k) <- receiver;
      out_pow.(k) <- in_pow.(j);
      cursor.(peer) <- k + 1
    done
  done;
  (out_off, out_rcv, out_pow, !entries)

(* One pass over the links validates them, checks that each has an
   equal-power twin, counts the rows' word entries (the count holds only
   if the rows are symmetric) and takes the guard's degree and power
   extremes.  The twin of r <- s is the next unread link of row s:
   receivers ascending read every row's links in order, so one cursor per
   row suffices.  Symmetric rows are their own out-rows; others are
   transposed.  Either way the word entries are built from the out-rows
   where the density gate and the exactness guard pass. *)
let of_incoming ~in_off ~in_peer ~in_pow =
  let n = Array.length in_off - 1 in
  let links = Array.length in_peer in
  if n < 0 || in_off.(0) <> 0 || in_off.(n) <> links || Array.length in_pow <> links then
    invalid_arg "Graph: row offsets disagree with the link arrays";
  for i = 0 to n - 1 do
    if in_off.(i + 1) < in_off.(i) then
      invalid_arg "Graph: row offsets disagree with the link arrays"
  done;
  let bits = Bitvec.bits_per_word in
  let cursor = Array.sub in_off 0 n and entries = ref 0 in
  let symmetric = ref true and d = ref 0 and p_min = ref infinity and p_max = ref 0.0 in
  for i = 0 to n - 1 do
    let first = in_off.(i) and stop = in_off.(i + 1) in
    if stop - first > !d then d := stop - first;
    (* [prev]: the row's previous peer; [word]: its word.  The entry count
       adds a comparison, not a branch, per link: sparse rows change word
       at nearly every link, where a branch would mispredict. *)
    let prev = ref (-1) and word = ref (-1) in
    for k = first to stop - 1 do
      let peer = in_peer.(k) and power = in_pow.(k) in
      if peer < 0 || peer >= n then invalid_arg "Graph: link peer out of range";
      if peer = i then invalid_arg "Graph: self-loop";
      if not (power > 0.0) then
        invalid_arg
          (if Float.is_nan power then "Graph: NaN link power"
           else "Graph: non-positive link power");
      if peer <= !prev then
        invalid_arg (if peer = !prev then "Graph: duplicate link" else "Graph: row not ascending");
      prev := peer;
      if power < !p_min then p_min := power;
      if power > !p_max && power < infinity then p_max := power;
      if !symmetric then begin
        let c = cursor.(peer) in
        if c < in_off.(peer + 1) && in_peer.(c) = i && in_pow.(c) = power then
          cursor.(peer) <- c + 1
        else symmetric := false
      end;
      let w = peer / bits in
      entries := !entries + Bool.to_int (w <> !word);
      word := w
    done
  done;
  let exact = !p_min > 1e-12 +. (float_of_int ((!d * !d) + 2) *. !p_max *. epsilon_float) in
  let out_off, out_rcv, out_pow, entries =
    if !symmetric then (in_off, in_peer, in_pow, !entries) else transpose ~in_off ~in_peer ~in_pow
  in
  let words =
    if exact && 2 * entries <= links then Some (word_entries ~out_off ~out_rcv ~out_pow entries)
    else None
  in
  { in_off; in_peer; in_pow; csr = { out_off; out_rcv; out_pow; words } }

let make rows =
  let n = Array.length rows in
  let in_off = Array.make (n + 1) 0 in
  Array.iteri (fun i row -> in_off.(i + 1) <- in_off.(i) + Array.length row) rows;
  let in_peer = Array.make in_off.(n) 0 and in_pow = Array.create_float in_off.(n) in
  Array.iteri
    (fun i row ->
      let row = Array.copy row in
      Array.sort (fun (a, _) (b, _) -> Int.compare a b) row;
      Array.iteri
        (fun k (peer, power) ->
          in_peer.(in_off.(i) + k) <- peer;
          in_pow.(in_off.(i) + k) <- power)
        row)
    rows;
  of_incoming ~in_off ~in_peer ~in_pow

(* Each edge is a link both ways.  The endpoints are counting-sorted into
   neighbour lists; then senders in ascending order append themselves to
   their neighbours' rows, once to count and once to fill, so every row
   comes out ascending with no sort, and a repeated edge shows up as the
   row's last sender already being the sender. *)
let of_edges ~n edges =
  if n < 0 then invalid_arg "Graph.of_edges: negative node count";
  let adj_off = Array.make (n + 1) 0 in
  let rec count = function
    | [] -> ()
    | (u, v) :: rest ->
      if u < 0 || u >= n || v < 0 || v >= n then invalid_arg "Graph.of_edges: endpoint out of range";
      if u = v then invalid_arg "Graph.of_edges: self-loop";
      adj_off.(u + 1) <- adj_off.(u + 1) + 1;
      adj_off.(v + 1) <- adj_off.(v + 1) + 1;
      count rest
  in
  count edges;
  for i = 1 to n do
    adj_off.(i) <- adj_off.(i) + adj_off.(i - 1)
  done;
  let adj = Array.make adj_off.(n) 0 and cursor = Array.sub adj_off 0 n in
  let rec spread = function
    | [] -> ()
    | (u, v) :: rest ->
      adj.(cursor.(u)) <- v;
      cursor.(u) <- cursor.(u) + 1;
      adj.(cursor.(v)) <- u;
      cursor.(v) <- cursor.(v) + 1;
      spread rest
  in
  spread edges;
  let in_off = Array.make (n + 1) 0 and last = Array.make n (-1) in
  for s = 0 to n - 1 do
    for k = adj_off.(s) to adj_off.(s + 1) - 1 do
      let r = adj.(k) in
      if last.(r) <> s then begin
        last.(r) <- s;
        in_off.(r + 1) <- in_off.(r + 1) + 1
      end
    done
  done;
  for i = 1 to n do
    in_off.(i) <- in_off.(i) + in_off.(i - 1)
  done;
  let in_peer = Array.make in_off.(n) 0 in
  Array.blit in_off 0 cursor 0 n;
  for s = 0 to n - 1 do
    for k = adj_off.(s) to adj_off.(s + 1) - 1 do
      let r = adj.(k) in
      let j = cursor.(r) in
      if j = in_off.(r) || in_peer.(j - 1) <> s then begin
        in_peer.(j) <- s;
        cursor.(r) <- j + 1
      end
    done
  done;
  of_incoming ~in_off ~in_peer ~in_pow:(Array.make in_off.(n) 1.0)

(* Rows ascend, so membership is a binary search; -1 when absent. *)
let rec search peers tx lo hi =
  if lo >= hi then -1
  else begin
    let mid = (lo + hi) / 2 in
    let v = peers.(mid) in
    if v = tx then mid else if v < tx then search peers tx (mid + 1) hi else search peers tx lo mid
  end

let find t ~rx ~tx = search t.in_peer tx t.in_off.(rx) t.in_off.(rx + 1)
let senses t ~rx ~tx = find t ~rx ~tx >= 0

let can_decode t ~rx ~tx =
  let k = find t ~rx ~tx in
  k >= 0 && t.in_pow.(k) >= 1.0

let iter_rx t i f =
  for k = t.in_off.(i) to t.in_off.(i + 1) - 1 do
    if t.in_pow.(k) >= 1.0 then f t.in_peer.(k)
  done

let degree t i =
  let d = ref 0 in
  for k = t.in_off.(i) to t.in_off.(i + 1) - 1 do
    if t.in_pow.(k) >= 1.0 then incr d
  done;
  !d

let hops_from t src =
  let n = size t in
  let dist = Array.make n (-1) in
  let queue = Queue.create () in
  dist.(src) <- 0;
  Queue.add src queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    iter_rx t u (fun v ->
        if dist.(v) < 0 then begin
          dist.(v) <- dist.(u) + 1;
          Queue.add v queue
        end)
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
    let total = ref 0 in
    for i = 0 to n - 1 do
      total := !total + degree t i
    done;
    float_of_int !total /. float_of_int n
  end

let max_degree t =
  let best = ref 0 in
  for i = 0 to size t - 1 do
    best := max !best (degree t i)
  done;
  !best

let is_symmetric t =
  let ok = ref true in
  for i = 0 to size t - 1 do
    iter_rx t i (fun j -> if not (can_decode t ~rx:j ~tx:i) then ok := false)
  done;
  !ok
