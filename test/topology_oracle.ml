(* The reference graph constructions: the link-record spatial hash, the
   per-row sorting edge-list constructor, the list-based CSR transposition
   and the schedulers that build a list (and an n-slot array) per node,
   kept as they behaved.  [Topology.build], [Graph.of_edges], [Graph.csr]
   and [Schedule.for_nodes] / [Schedule.for_graph] produce the same rows,
   powers, entries and slots through flat arrays; test_sim holds them to
   these, bit for bit. *)

type link = { peer : Node.id; power : float }

(* [sensed.(i)]: every node whose transmissions put energy on [i]'s
   channel, with power, sorted by peer; [rx.(i)]: the decodable ones. *)
type rows = { sensed : link array array; rx : Node.id array array }

(* Spatial hash with cells of the sense range and (int * int) keys; every
   neighbour of a node lies in its own or the 8 surrounding cells. *)
let build (deployment : Deployment.t) prop =
  let nodes = deployment.Deployment.nodes in
  let n = Array.length nodes in
  let reach = max 1e-6 (Propagation.sense_range prop) in
  let cell_of (p : Point.t) =
    (int_of_float (Float.floor (p.x /. reach)), int_of_float (Float.floor (p.y /. reach)))
  in
  let cells : (int * int, Node.id list ref) Hashtbl.t = Hashtbl.create (max 16 n) in
  Array.iter
    (fun (node : Node.t) ->
      let key = cell_of node.pos in
      match Hashtbl.find_opt cells key with
      | Some bucket -> bucket := node.id :: !bucket
      | None -> Hashtbl.add cells key (ref [ node.id ]))
    nodes;
  let sense_thr = Propagation.sense_threshold prop in
  let sensed = Array.make n [||] and rx = Array.make n [||] in
  Array.iter
    (fun (node : Node.t) ->
      let cx, cy = cell_of node.pos in
      let links = ref [] in
      for dx = -1 to 1 do
        for dy = -1 to 1 do
          match Hashtbl.find_opt cells (cx + dx, cy + dy) with
          | None -> ()
          | Some bucket ->
            List.iter
              (fun j ->
                if j <> node.id then begin
                  let power =
                    Propagation.received_power prop ~src:nodes.(j).Node.pos ~dst:node.pos
                  in
                  if power >= sense_thr then links := { peer = j; power } :: !links
                end)
              !bucket
        done
      done;
      let links = Array.of_list !links in
      Array.sort (fun a b -> Int.compare a.peer b.peer) links;
      sensed.(node.id) <- links;
      rx.(node.id) <-
        Array.of_list
          (List.filter_map (fun l -> if l.power >= 1.0 then Some l.peer else None)
             (Array.to_list links)))
    nodes;
  { sensed; rx }

(* Undirected decode-only rows from an edge list, duplicates merged. *)
let of_edges ~n edges =
  let adj = Array.make (max 1 n) [] in
  List.iter
    (fun (u, v) ->
      adj.(u) <- v :: adj.(u);
      adj.(v) <- u :: adj.(v))
    edges;
  let rx = Array.init n (fun i -> Array.of_list (List.sort_uniq Int.compare adj.(i))) in
  { sensed = Array.map (Array.map (fun peer -> { peer; power = 1.0 })) rx; rx }

(* The engine's outgoing rows (receivers ascending) and word entries,
   under the same density gate and exactness guard as [Graph.csr]. *)
let csr { sensed; _ } =
  let n = Array.length sensed and bits = Bitvec.bits_per_word in
  let out = Array.make n [] in
  for receiver = n - 1 downto 0 do
    Array.iter (fun { peer; power } -> out.(peer) <- (receiver, power) :: out.(peer)) sensed.(receiver)
  done;
  let entries_of row =
    List.fold_left
      (fun acc (receiver, power) ->
        let w = receiver / bits and bit = 1 lsl (receiver mod bits) in
        let dec = if power >= 1.0 && power < infinity then bit else 0 in
        match acc with
        | (w', s, d) :: rest when w' = w -> (w, s lor bit, d lor dec) :: rest
        | _ -> (w, bit, dec) :: acc)
      [] row
    |> List.rev
  in
  let entries = Array.map entries_of out in
  let links = Array.fold_left (fun acc row -> acc + List.length row) 0 out in
  let n_entries = Array.fold_left (fun acc row -> acc + List.length row) 0 entries in
  let d = Array.fold_left (fun acc row -> max acc (Array.length row)) 0 sensed in
  let p_min = ref infinity and p_max = ref 0.0 in
  Array.iter
    (Array.iter (fun { power; _ } ->
         if power < !p_min then p_min := power;
         if power > !p_max && power < infinity then p_max := power))
    sensed;
  let exact = !p_min > 1e-12 +. (float_of_int ((d * d) + 2) *. !p_max *. epsilon_float) in
  (out, if 2 * n_entries <= links && exact then Some entries else None)

(* The per-node schedulers as they were: a (int * int)-keyed hash of
   conflict cells, and a fresh n-slot array and list per node for the
   three-hop graph rule. *)
let first_free_colouring n ~source conflicts =
  let colors = Array.make n (-1) in
  let max_color = ref 0 in
  for id = 0 to n - 1 do
    if id <> source then begin
      let used =
        List.filter_map (fun j -> if colors.(j) >= 0 then Some colors.(j) else None) (conflicts id)
      in
      let rec first_free c = if List.mem c used then first_free (c + 1) else c in
      let c = first_free 0 in
      colors.(id) <- c;
      if c > !max_color then max_color := c
    end
  done;
  let slots = Array.map (fun c -> if c < 0 then 0 else c + 1) colors in
  slots.(source) <- 0;
  (!max_color + 2, slots)

let for_nodes (deployment : Deployment.t) ~conflict_range ~source =
  let nodes = deployment.Deployment.nodes in
  let n = Array.length nodes in
  let cell_of (p : Point.t) =
    ( int_of_float (Float.floor (p.x /. conflict_range)),
      int_of_float (Float.floor (p.y /. conflict_range)) )
  in
  let cells = Hashtbl.create (max 16 n) in
  Array.iter
    (fun (node : Node.t) ->
      let key = cell_of node.pos in
      Hashtbl.replace cells key (node.id :: (try Hashtbl.find cells key with Not_found -> [])))
    nodes;
  first_free_colouring n ~source (fun id ->
      let p = nodes.(id).Node.pos in
      let cx, cy = cell_of p in
      let acc = ref [] in
      for dx = -1 to 1 do
        for dy = -1 to 1 do
          match Hashtbl.find_opt cells (cx + dx, cy + dy) with
          | None -> ()
          | Some ids ->
            List.iter
              (fun j ->
                if j <> id && Point.dist_l2 p nodes.(j).Node.pos <= conflict_range then
                  acc := j :: !acc)
              ids
        done
      done;
      !acc)

let for_graph { rx; _ } ~source =
  let n = Array.length rx in
  first_free_colouring n ~source (fun id ->
      let acc = ref [] in
      let seen = Array.make n false in
      seen.(id) <- true;
      let add j =
        if not seen.(j) then begin
          seen.(j) <- true;
          acc := j :: !acc
        end
      in
      Array.iter
        (fun j ->
          add j;
          Array.iter
            (fun k ->
              add k;
              Array.iter add rx.(k))
            rx.(j))
        rx.(id);
      !acc)

(* The oracle rows of sorted sensed rows: the decodable peers are the
   links at a power of at least 1.0. *)
let of_sensed sensed =
  {
    sensed;
    rx =
      Array.map
        (fun links ->
          Array.of_list
            (List.filter_map (fun l -> if l.power >= 1.0 then Some l.peer else None)
               (Array.to_list links)))
        sensed;
  }

(* The oracle rows of a flat graph, for comparing constructors that have
   no oracle of their own. *)
let rows_of (g : Graph.t) =
  let row i =
    Array.init
      (g.Graph.in_off.(i + 1) - g.Graph.in_off.(i))
      (fun k -> { peer = g.Graph.in_peer.(g.Graph.in_off.(i) + k); power = g.Graph.in_pow.(g.Graph.in_off.(i) + k) })
  in
  of_sensed (Array.init (Graph.size g) row)
