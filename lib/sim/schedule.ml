let rounds_per_interval = 6
let interval_of_round r = r / rounds_per_interval
let phase_of_round r = r mod rounds_per_interval
let first_round_of_interval i = i * rounds_per_interval

type t = { cycle : int; slots : int array }

let cycle t = t.cycle
let slot_of t group = t.slots.(group)
let active_slot t ~interval = interval mod t.cycle
let source_slot = 0

let for_squares squares ~radius =
  assert (radius > 0.0);
  let side = Squares.side squares in
  (* Same-slot squares at grid distance k have closest points (k-1)·side
     apart; keep that above 3R. *)
  let k = max 3 (1 + int_of_float (ceil (3.0 *. radius /. side))) in
  let cols = Squares.cols squares in
  let slots = Array.make (Squares.count squares) 0 in
  for cy = 0 to Squares.rows squares - 1 do
    let row = 1 + (k * (cy mod k)) in
    for cx = 0 to cols - 1 do
      slots.((cy * cols) + cx) <- row + (cx mod k)
    done
  done;
  { cycle = (k * k) + 1; slots }

(* Greedy colouring in ascending id order, the source skipped:
   [conflicts id mark] must call [mark id j] for every node [j] that
   conflicts with [id] (repeats are harmless).  [taken.(c) = id] marks
   colour [c] as used by one of them, so no per-node set is built; the
   slots are the colours shifted past the source's slot 0. *)
let colour n ~source conflicts =
  let colors = Array.make n (-1) and taken = Array.make (n + 1) (-1) in
  let mark id j = if colors.(j) >= 0 then taken.(colors.(j)) <- id in
  let max_color = ref 0 in
  for id = 0 to n - 1 do
    if id <> source then begin
      conflicts id mark;
      let c = ref 0 in
      while taken.(!c) = id do
        incr c
      done;
      colors.(id) <- !c;
      if !c > !max_color then max_color := !c
    end
  done;
  let slots = Array.map (fun c -> if c < 0 then source_slot else c + 1) colors in
  slots.(source) <- source_slot;
  { cycle = !max_color + 2; slots }

(* Conflict neighbours: the nodes within [conflict_range], found through a
   cell index of that side. *)
let for_nodes topology ~conflict_range ~source =
  let deployment = Topology.deployment topology in
  let cells = Cell_index.make ~side:conflict_range deployment in
  let { Cell_index.xs; ys; ids; slot_key; slot_x; slot_y; _ } = cells in
  colour (Deployment.size deployment) ~source (fun id mark ->
      Cell_index.iter_cells cells id ~half:false (fun id cell lo hi ->
          for k = lo to hi - 1 do
            if slot_key.(k) = cell && ids.(k) <> id then begin
              let dx = xs.(id) -. slot_x.(k) and dy = ys.(id) -. slot_y.(k) in
              if sqrt ((dx *. dx) +. (dy *. dy)) <= conflict_range then mark id ids.(k)
            end
          done))

(* Graph analogue of [for_nodes] for topologies with no usable geometry:
   two nodes conflict when they are within THREE hops of each other in
   the decode graph.  Two hops would only keep concurrent senders from
   sharing a receiver; the interval protocols (Two_bit) also have the
   receiver transmit acknowledgement/veto blips, and a transmitting
   receiver of one sender must not be audible to a listening receiver of
   a same-slot sender — sender–receiver–receiver–sender is a length-3
   path.  This is the graph reading of the geometric 3R rule.  Same
   greedy ascending-id coloring and the same slot-0 reservation for the
   source, so the two schedulers produce interchangeable cycles.  Every
   walk of one to three decode hops is followed; [seen.(j) = id] keeps
   [id] itself out and each node to one [mark].  Nothing is allocated per
   node. *)
let for_graph topology ~source =
  let g = Topology.graph topology in
  let n = Graph.size g in
  let { Graph.in_off; in_peer; in_pow; _ } = g in
  let seen = Array.make n (-1) in
  let visit mark id j =
    if seen.(j) <> id then begin
      seen.(j) <- id;
      mark id j
    end
  in
  colour n ~source (fun id mark ->
      seen.(id) <- id;
      for a = in_off.(id) to in_off.(id + 1) - 1 do
        if in_pow.(a) >= 1.0 then begin
          let j = in_peer.(a) in
          visit mark id j;
          for b = in_off.(j) to in_off.(j + 1) - 1 do
            if in_pow.(b) >= 1.0 then begin
              let k = in_peer.(b) in
              visit mark id k;
              for c = in_off.(k) to in_off.(k + 1) - 1 do
                if in_pow.(c) >= 1.0 then visit mark id in_peer.(c)
              done
            end
          done
        end
      done)

(* Wakeup arithmetic for the sparse engine: given the set of slots a
   machine cares about (its own sending slot plus the slots it listens
   to), answer "first round >= r of a relevant interval" in O(1) via a
   precomputed distance-to-next-relevant-slot table.  The table depends
   only on the slot set, so the closure is built once per machine. *)
let next_relevant_round t ~relevant =
  let c = t.cycle in
  if Array.length relevant <> c then
    invalid_arg "Schedule.next_relevant_round: relevant array must have one entry per slot";
  let any = Array.exists (fun b -> b) relevant in
  (* delta.(s) = intervals from slot s to the nearest relevant slot at or
     after it, cyclically.  Two backward passes resolve the wraparound. *)
  let delta = Array.make (max 1 c) c in
  for _pass = 0 to 1 do
    for s = c - 1 downto 0 do
      if relevant.(s) then delta.(s) <- 0
      else begin
        let next = delta.((s + 1) mod c) in
        if next < c then delta.(s) <- min delta.(s) (next + 1)
      end
    done
  done;
  fun round ->
    if not any then max_int
    else begin
      let interval = interval_of_round round in
      let d = delta.(interval mod c) in
      if d = 0 then round else first_round_of_interval (interval + d)
    end
