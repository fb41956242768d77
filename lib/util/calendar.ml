(* Calendar queue for the wakeup-driven engine: an int-keyed binary
   min-heap over parallel arrays, so scheduling and draining wakeups
   allocates nothing once the arrays have grown to their working size.
   Duplicate (key, value) entries are allowed, which is cheaper than a
   decrease-key: the engine pushes only when a machine's wake round moves,
   and its per-round word set absorbs the duplicates that remain. *)

type t = { mutable keys : int array; mutable vals : int array; mutable size : int }

let create ?(capacity = 16) () =
  let capacity = max 1 capacity in
  { keys = Array.make capacity 0; vals = Array.make capacity 0; size = 0 }

let is_empty t = t.size = 0
let size t = t.size

let grow t =
  let cap = Array.length t.keys in
  let keys = Array.make (2 * cap) 0 and vals = Array.make (2 * cap) 0 in
  Array.blit t.keys 0 keys 0 t.size;
  Array.blit t.vals 0 vals 0 t.size;
  t.keys <- keys;
  t.vals <- vals

let swap t i j =
  let k = t.keys.(i) and v = t.vals.(i) in
  t.keys.(i) <- t.keys.(j);
  t.vals.(i) <- t.vals.(j);
  t.keys.(j) <- k;
  t.vals.(j) <- v

let add t key value =
  if t.size = Array.length t.keys then grow t;
  t.keys.(t.size) <- key;
  t.vals.(t.size) <- value;
  let i = ref t.size in
  t.size <- t.size + 1;
  while !i > 0 && t.keys.((!i - 1) / 2) > t.keys.(!i) do
    let parent = (!i - 1) / 2 in
    swap t !i parent;
    i := parent
  done

let min_key t =
  if t.size = 0 then invalid_arg "Calendar.min_key: empty";
  t.keys.(0)

let pop_min t =
  if t.size = 0 then invalid_arg "Calendar.pop_min: empty";
  let v = t.vals.(0) in
  t.size <- t.size - 1;
  if t.size > 0 then begin
    t.keys.(0) <- t.keys.(t.size);
    t.vals.(0) <- t.vals.(t.size);
    let i = ref 0 in
    let sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < t.size && t.keys.(l) < t.keys.(!smallest) then smallest := l;
      if r < t.size && t.keys.(r) < t.keys.(!smallest) then smallest := r;
      if !smallest = !i then sifting := false
      else begin
        swap t !i !smallest;
        i := !smallest
      end
    done
  end;
  v
