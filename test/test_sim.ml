(* Tests for the simulator substrate: deployments, topology, schedules and
   the round engine (including its equivalence with the reference channel
   resolution). *)

let point = Point.make

(* --- Deployment --------------------------------------------------------- *)

let test_grid_deployment () =
  let d = Deployment.grid ~width:4 ~height:3 in
  Alcotest.(check int) "size" 12 (Deployment.size d);
  let n5 = d.Deployment.nodes.(5) in
  Alcotest.(check bool) "row-major positions" true (Point.equal n5.Node.pos (point 1.0 1.0))

let test_uniform_deployment () =
  let rng = Rng.create 1 in
  let d = Deployment.uniform rng ~n:200 ~width:10.0 ~height:5.0 in
  Alcotest.(check int) "size" 200 (Deployment.size d);
  Array.iter
    (fun (node : Node.t) ->
      Alcotest.(check bool) "inside map" true
        (node.Node.pos.Point.x >= 0.0 && node.Node.pos.Point.x <= 10.0
        && node.Node.pos.Point.y >= 0.0 && node.Node.pos.Point.y <= 5.0))
    d.Deployment.nodes;
  Alcotest.(check (float 1e-9)) "density" 4.0 (Deployment.density d)

let test_clustered_deployment () =
  let rng = Rng.create 2 in
  let d = Deployment.clustered rng ~n:300 ~clusters:4 ~stddev:1.0 ~width:20.0 ~height:20.0 in
  Alcotest.(check int) "size" 300 (Deployment.size d);
  Array.iter
    (fun (node : Node.t) ->
      Alcotest.(check bool) "clamped to map" true
        (node.Node.pos.Point.x >= 0.0 && node.Node.pos.Point.x <= 20.0
        && node.Node.pos.Point.y >= 0.0 && node.Node.pos.Point.y <= 20.0))
    d.Deployment.nodes;
  (* Clustering produces markedly higher local concentration than uniform:
     the mean nearest-neighbour distance shrinks. *)
  let nn_dist (dep : Deployment.t) =
    let nodes = dep.Deployment.nodes in
    let dists =
      Array.to_list
        (Array.map
           (fun (a : Node.t) ->
             Array.fold_left
               (fun best (b : Node.t) ->
                 if a.Node.id = b.Node.id then best else min best (Point.dist_l2 a.pos b.pos))
               infinity nodes)
           nodes)
    in
    Stats.mean dists
  in
  let u = Deployment.uniform (Rng.create 3) ~n:300 ~width:20.0 ~height:20.0 in
  Alcotest.(check bool) "clustered is denser locally" true (nn_dist d < nn_dist u)

let test_center_node () =
  let d = Deployment.grid ~width:5 ~height:5 in
  Alcotest.(check int) "center of 5x5 grid" 12 (Deployment.center_node d)

(* --- Topology ------------------------------------------------------------ *)

let grid_topology ~side ~radius =
  Topology.build (Deployment.grid ~width:side ~height:side) (Propagation.disk_linf radius)

(* Links in node [i]'s row, decodable or not. *)
let row_length t i =
  let g = Topology.graph t in
  g.Graph.in_off.(i + 1) - g.Graph.in_off.(i)

let test_topology_grid_neighbors () =
  let t = grid_topology ~side:7 ~radius:2.0 in
  let g = Topology.graph t in
  let center = 24 (* (3,3) *) in
  Alcotest.(check int) "interior degree (2R+1)^2-1" 24 (Graph.degree g center);
  Alcotest.(check int) "corner degree" 8 (Graph.degree g 0);
  Alcotest.(check bool) "disk: rx = sensed" true (row_length t center = Graph.degree g center)

let test_topology_friis_sense_superset () =
  let d = Deployment.grid ~width:9 ~height:9 in
  let t = Topology.build d (Propagation.friis 2.0) in
  for i = 0 to Topology.size t - 1 do
    Alcotest.(check bool) "sensed includes rx" true
      (row_length t i >= Graph.degree (Topology.graph t) i)
  done

let test_topology_hops () =
  let g = Topology.graph (grid_topology ~side:9 ~radius:2.0) in
  let hops = Graph.hops_from g 0 in
  Alcotest.(check int) "self" 0 hops.(0);
  Alcotest.(check int) "one hop" 1 hops.(2 + (9 * 2));
  (* corner to corner: L-inf distance 8, radius 2 -> 4 hops *)
  Alcotest.(check int) "far corner" 4 hops.((9 * 9) - 1);
  Alcotest.(check int) "diameter" 4 (Graph.hop_diameter_from g 0);
  Alcotest.(check int) "all reachable" 81 (Graph.reachable_from g 0)

let test_topology_disconnected () =
  (* Two nodes far beyond range. *)
  let d =
    {
      Deployment.width = 100.0;
      height = 1.0;
      nodes = [| Node.make 0 (point 0.0 0.0); Node.make 1 (point 99.0 0.0) |];
    }
  in
  let g = Topology.graph (Topology.build d (Propagation.disk_l2 2.0)) in
  let hops = Graph.hops_from g 0 in
  Alcotest.(check int) "unreachable marked" (-1) hops.(1);
  Alcotest.(check int) "reachable count" 1 (Graph.reachable_from g 0)

(* Regression: the spatial hash must floor coordinates into cells rather
   than truncate toward zero — truncation merges (-reach, 0) with
   [0, reach) into one double-width cell on each axis for deployments
   that extend into negative coordinates.  A pair straddling the y axis
   plus a brute-force check of the whole rx relation pins the binning. *)
let test_topology_negative_coords () =
  let prop = Propagation.disk_l2 2.0 in
  let rng = Rng.create 77 in
  let nodes =
    Array.init 40 (fun i ->
        Node.make i (point (Rng.float rng 16.0 -. 8.0) (Rng.float rng 16.0 -. 8.0)))
  in
  nodes.(0) <- Node.make 0 (point (-0.5) 3.0);
  nodes.(1) <- Node.make 1 (point 0.5 3.0);
  let d = { Deployment.width = 16.0; height = 16.0; nodes } in
  let g = Topology.graph (Topology.build d prop) in
  Alcotest.(check bool) "axis-straddling pair linked" true (Graph.can_decode g ~rx:0 ~tx:1);
  let n = Array.length nodes in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then begin
        let expected =
          Propagation.received_power prop ~src:nodes.(j).Node.pos ~dst:nodes.(i).Node.pos >= 1.0
        in
        Alcotest.(check bool)
          (Printf.sprintf "link %d<-%d matches brute force" i j)
          expected
          (Graph.can_decode g ~rx:i ~tx:j)
      end
    done
  done

let test_topology_can_decode () =
  let g = Topology.graph (grid_topology ~side:5 ~radius:1.0) in
  Alcotest.(check bool) "adjacent" true (Graph.can_decode g ~rx:0 ~tx:1);
  Alcotest.(check bool) "far" false (Graph.can_decode g ~rx:0 ~tx:4)

(* Regression for the sorted link rows: every row ascends by peer id, and
   the binary-searching [can_decode] agrees with brute-force power
   computation over every pair of a random deployment. *)
let test_topology_sorted_rows_and_lookup () =
  let prop = Propagation.friis 3.0 in
  let d = Deployment.uniform (Rng.create 11) ~n:120 ~width:15.0 ~height:15.0 in
  let t = Topology.build d prop in
  let { Graph.in_off; in_peer; _ } = Topology.graph t in
  for i = 0 to Topology.size t - 1 do
    for k = in_off.(i) + 1 to in_off.(i + 1) - 1 do
      Alcotest.(check bool) (Printf.sprintf "row %d sorted" i) true (in_peer.(k - 1) < in_peer.(k))
    done
  done;
  let n = Deployment.size d in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then begin
        let expected =
          Propagation.received_power prop ~src:(Topology.position t j)
            ~dst:(Topology.position t i)
          >= 1.0
        in
        Alcotest.(check bool)
          (Printf.sprintf "can_decode %d<-%d" i j)
          expected
          (Graph.can_decode (Topology.graph t) ~rx:i ~tx:j)
      end
    done
  done

(* --- Flat graph vs the reference constructions ------------------------- *)

(* The first difference between a flat graph and the reference rows, if
   any: every row with the bits of every power, the decodable sets, the
   engine's CSR rows and its word entries. *)
let oracle_mismatch (g : Graph.t) (want : Topology_oracle.rows) =
  let n = Array.length want.Topology_oracle.sensed in
  let bits = Int64.bits_of_float in
  let diff = ref None in
  let fail fmt = Printf.ksprintf (fun m -> if !diff = None then diff := Some m) fmt in
  if Graph.size g <> n then fail "size %d, expected %d" (Graph.size g) n
  else begin
    for i = 0 to n - 1 do
      let row = want.Topology_oracle.sensed.(i) in
      let first = g.Graph.in_off.(i) in
      if g.Graph.in_off.(i + 1) - first <> Array.length row then
        fail "row %d: %d links, expected %d" i (g.Graph.in_off.(i + 1) - first) (Array.length row)
      else
        Array.iteri
          (fun k { Topology_oracle.peer; power } ->
            if g.Graph.in_peer.(first + k) <> peer || bits g.Graph.in_pow.(first + k) <> bits power
            then fail "row %d link %d: (%d, %h), expected (%d, %h)" i k g.Graph.in_peer.(first + k)
                g.Graph.in_pow.(first + k) peer power)
          row;
      let decodable = ref [] in
      Graph.iter_rx g i (fun j -> decodable := j :: !decodable);
      if List.rev !decodable <> Array.to_list want.Topology_oracle.rx.(i) then
        fail "row %d: decodable set differs" i
    done;
    let out, entries = Topology_oracle.csr want in
    let { Graph.out_off; out_rcv; out_pow; words } = Graph.csr g in
    for i = 0 to n - 1 do
      let got =
        List.init (out_off.(i + 1) - out_off.(i)) (fun k ->
            (out_rcv.(out_off.(i) + k), bits out_pow.(out_off.(i) + k)))
      in
      if got <> List.map (fun (r, p) -> (r, bits p)) out.(i) then fail "CSR row %d differs" i
    done;
    match (words, entries) with
    | None, None -> ()
    | Some _, None -> fail "word entries built, expected none"
    | None, Some _ -> fail "no word entries, expected some"
    | Some { Graph.word_off; word_idx; word_sensed; word_dec }, Some entries ->
      Array.iteri
        (fun i row ->
          let got =
            List.init (word_off.(i + 1) - word_off.(i)) (fun k ->
                let e = word_off.(i) + k in
                (word_idx.(e), word_sensed.(e), word_dec.(e)))
          in
          if got <> row then fail "word entries of node %d differ" i)
        entries
  end;
  !diff

let check_oracle label g want =
  match oracle_mismatch g want with None -> () | Some m -> Alcotest.failf "%s: %s" label m

(* Symmetric rows are their own fan-out rows: the graph shares them. *)
let shares_rows (g : Graph.t) =
  let { Graph.out_off; out_rcv; out_pow; _ } = Graph.csr g in
  out_off == g.Graph.in_off && out_rcv == g.Graph.in_peer && out_pow == g.Graph.in_pow

let check_shared label g = Alcotest.(check bool) (label ^ ": rows shared") true (shares_rows g)

let check_build label deployment prop =
  let g = Topology.graph (Topology.build deployment prop) in
  check_oracle label g (Topology_oracle.build deployment prop);
  check_shared label g

let props = [ ("friis", Propagation.friis 3.0); ("disk-l2", Propagation.disk_l2 2.5); ("disk-linf", Propagation.disk_linf 2.0) ]

let oracle_deployment kind seed n =
  let rng = Rng.create seed in
  match kind with
  | 0 -> Deployment.uniform rng ~n ~width:18.0 ~height:12.0
  | 1 -> Deployment.clustered rng ~n ~clusters:3 ~stddev:2.0 ~width:18.0 ~height:12.0
  | _ -> Deployment.grid ~width:(1 + (n mod 13)) ~height:(1 + (n / 13))

let prop_build_matches_oracle =
  QCheck.Test.make ~name:"Topology.build = the reference, bit for bit" ~count:60
    QCheck.(triple (int_bound 10_000) (int_range 1 180) (pair (int_bound 2) (int_bound 2)))
    (fun (seed, n, (kind, p)) ->
      let deployment = oracle_deployment kind seed n in
      let _, prop = List.nth props p in
      let g = Topology.graph (Topology.build deployment prop) in
      match oracle_mismatch g (Topology_oracle.build deployment prop) with
      | None -> shares_rows g || QCheck.Test.fail_reportf "kind %d, prop %d: rows not shared" kind p
      | Some m -> QCheck.Test.fail_reportf "kind %d, prop %d: %s" kind p m)

let shifted (d : Deployment.t) ~dx ~dy =
  {
    d with
    Deployment.nodes =
      Array.map
        (fun (n : Node.t) -> Node.make n.Node.id (point (n.Node.pos.Point.x +. dx) (n.Node.pos.Point.y +. dy)))
        d.Deployment.nodes;
  }

(* The layouts a random draw seldom produces: a map shifted across both
   axes, co-located Friis nodes (infinite power), maps far wider or
   taller than the range, whose cell numbers wrap, and disk ranges of
   zero and below. *)
let test_build_oracle_edge_cases () =
  let uniform = Deployment.uniform (Rng.create 9) ~n:150 ~width:14.0 ~height:14.0 in
  List.iter
    (fun (name, prop) ->
      check_build ("negative " ^ name) (shifted uniform ~dx:(-7.3) ~dy:(-20.0)) prop;
      let nodes = Array.copy uniform.Deployment.nodes in
      List.iter (fun i -> nodes.(i + 1) <- Node.make (i + 1) nodes.(i).Node.pos) [ 3; 40; 41; 90 ];
      check_build ("co-located " ^ name) { uniform with Deployment.nodes } prop;
      check_build ("wide " ^ name)
        (Deployment.uniform (Rng.create 4) ~n:300 ~width:50_000.0 ~height:20.0)
        prop;
      check_build ("tall " ^ name)
        (Deployment.uniform (Rng.create 5) ~n:300 ~width:3.0 ~height:90_000.0)
        prop)
    props;
  (* A sender exactly at the sense range arrives at exactly the sense
     threshold, and is sensed. *)
  List.iter
    (fun (name, prop) ->
      let reach = Propagation.sense_range prop in
      let pair =
        {
          Deployment.width = reach;
          height = 1.0;
          nodes = [| Node.make 0 (point 0.0 0.0); Node.make 1 (point reach 0.0) |];
        }
      in
      check_build ("boundary " ^ name) pair prop;
      Alcotest.(check bool) ("boundary " ^ name ^ ": sensed") true
        (Graph.senses (Topology.graph (Topology.build pair prop)) ~rx:1 ~tx:0))
    props;
  (* A disk range of zero links only co-located nodes, and a negative one
     links none: the counting and filling passes must agree on both. *)
  let nodes = Array.copy uniform.Deployment.nodes in
  List.iter (fun i -> nodes.(i + 1) <- Node.make (i + 1) nodes.(i).Node.pos) [ 1; 40; 41 ];
  let colocated = { uniform with Deployment.nodes } in
  List.iter
    (fun (name, prop, links) ->
      check_build name colocated prop;
      let g = Topology.graph (Topology.build colocated prop) in
      Alcotest.(check int) (name ^ ": links") links (Array.length g.Graph.in_peer))
    [
      ("zero disk-l2", Propagation.disk_l2 0.0, 8);
      ("zero disk-linf", Propagation.disk_linf 0.0, 8);
      ("negative disk-l2", Propagation.disk_l2 (-1.0), 0);
      ("negative disk-linf", Propagation.disk_linf (-1.0), 0);
    ];
  (* The co-located case is not vacuous: the pair links at infinity. *)
  let twins = shifted uniform ~dx:0.0 ~dy:0.0 in
  twins.Deployment.nodes.(8) <- Node.make 8 twins.Deployment.nodes.(7).Node.pos;
  let g = Topology.graph (Topology.build twins (Propagation.friis 3.0)) in
  Alcotest.(check bool) "co-located nodes link at infinite power" true
    (List.exists
       (fun k -> g.Graph.in_peer.(k) = 7 && g.Graph.in_pow.(k) = infinity)
       (List.init (g.Graph.in_off.(9) - g.Graph.in_off.(8)) (fun k -> g.Graph.in_off.(8) + k)))

(* The cell table stays O(n) words: a map 10⁵ cells wide wraps its cell
   numbers onto at most 2n buckets, and a compact one gets at most 8n. *)
let test_cell_index_size () =
  let buckets (d : Deployment.t) = Array.length (Cell_index.make ~side:1.0 d).Cell_index.start - 1 in
  let n = 300 in
  let wide = Deployment.uniform (Rng.create 4) ~n ~width:100_000.0 ~height:20.0 in
  let compact = Deployment.uniform (Rng.create 4) ~n ~width:30.0 ~height:30.0 in
  Alcotest.(check bool) "wide map: at most 2n buckets" true (buckets wide <= 2 * n);
  Alcotest.(check bool) "compact map: at most 8n buckets" true (buckets compact <= 8 * n)

(* Every generated family: its CSR and word entries against the reference
   transposition, and [Graph.of_edges] against the reference edge-list
   construction on the same edges, duplicates and both orientations
   included. *)
let families () =
  [
    ("grid-holes", Graphs.grid_with_holes (Rng.create 3) ~width:9 ~height:7 ~holes:8);
    ("corridor", Graphs.corridor ~rooms:3 ~room_w:4 ~room_h:3 ~hall_len:3);
    ("triangulation", Graphs.triangulation (Rng.create 4) ~cols:8 ~rows:6 ~jitter:0.2);
    ("expander", Graphs.expander (Rng.create 5) ~n:300 ~degree:8);
    ("lattice", Graphs.lattice ~width:9 ~height:8);
  ]

let test_families_oracle () =
  List.iter
    (fun (name, topology) ->
      let g = Topology.graph topology in
      check_oracle name g (Topology_oracle.rows_of g);
      check_shared name g;
      let edges = ref [] in
      for i = 0 to Graph.size g - 1 do
        Graph.iter_rx g i (fun j -> edges := (i, j) :: (j, i) :: !edges)
      done;
      let h = Graph.of_edges ~n:(Graph.size g) !edges in
      check_oracle (name ^ " of_edges") h (Topology_oracle.of_edges ~n:(Graph.size g) !edges);
      check_shared (name ^ " of_edges") h)
    (families ())

let prop_of_edges_matches_oracle =
  QCheck.Test.make ~name:"Graph.of_edges = the reference" ~count:100
    QCheck.(pair (int_range 2 40) (small_list (pair small_nat small_nat)))
    (fun (n, pairs) ->
      let edges = List.filter (fun (u, v) -> u <> v) (List.map (fun (u, v) -> (u mod n, v mod n)) pairs) in
      match oracle_mismatch (Graph.of_edges ~n edges) (Topology_oracle.of_edges ~n edges) with
      | None -> true
      | Some m -> QCheck.Test.fail_reportf "%s" m)

(* Random row sets on up to 40 nodes, powers from a pool that has a
   sub-1e-12 power (which fails the exactness guard) and an infinite one.
   Half the draws get every missing twin at its link's power, and some
   of those then move one twin's power.  [Graph.of_incoming] must share
   the rows exactly when every link has an equal-power twin, and either
   way produce the reference's ascending rows and word entries. *)
let prop_of_incoming_shares_symmetric_rows =
  let pool = [| 0.5; 1.0; 2.0; infinity; 1e-13 |] in
  QCheck.Test.make ~name:"Graph.of_incoming shares exactly the symmetric rows" ~count:300
    QCheck.(
      quad (int_range 2 40) (small_list (triple small_nat small_nat (int_bound 4))) bool
        (int_bound 2))
    (fun (n, draws, symmetrise, perturb) ->
      (* [power.(r).(s)]: the power of link r <- s, NaN for no link. *)
      let power = Array.make_matrix n n nan in
      List.iter
        (fun (r, s, p) ->
          let r = r mod n and s = s mod n in
          if r <> s && Float.is_nan power.(r).(s) then power.(r).(s) <- pool.(p))
        draws;
      if symmetrise then begin
        for r = 0 to n - 1 do
          for s = r + 1 to n - 1 do
            let p = if Float.is_nan power.(r).(s) then power.(s).(r) else power.(r).(s) in
            power.(r).(s) <- p;
            power.(s).(r) <- p
          done
        done;
        let twin = ref None in
        Array.iteri
          (fun r row ->
            Array.iteri
              (fun s p -> if Option.is_none !twin && not (Float.is_nan p) then twin := Some (s, r))
              row)
          power;
        match !twin with
        | Some (s, r) when perturb = 0 -> power.(s).(r) <- power.(s).(r) *. 3.0
        | Some _ | None -> ()
      end;
      let symmetric = ref true in
      Array.iteri
        (fun r row ->
          Array.iteri (fun s p -> if not (Float.equal p power.(s).(r)) then symmetric := false) row)
        power;
      let symmetric = !symmetric in
      let sensed =
        Array.map
          (fun row ->
            Array.of_list
              (List.filter_map
                 (fun peer ->
                   if Float.is_nan row.(peer) then None
                   else Some { Topology_oracle.peer; power = row.(peer) })
                 (List.init n Fun.id)))
          power
      in
      let g =
        Graph.make
          (Array.map (Array.map (fun { Topology_oracle.peer; power } -> (peer, power))) sensed)
      in
      match oracle_mismatch g (Topology_oracle.of_sensed sensed) with
      | Some m -> QCheck.Test.fail_reportf "%s" m
      | None ->
        shares_rows g = symmetric
        || QCheck.Test.fail_reportf "symmetric %b, shared %b" symmetric (shares_rows g))

let slots schedule n = (Schedule.cycle schedule, Array.init n (Schedule.slot_of schedule))

let test_schedules_oracle () =
  List.iter
    (fun (name, topology) ->
      let g = Topology.graph topology and n = Topology.size topology in
      Alcotest.(check (pair int (array int)))
        (name ^ ": for_graph slots")
        (Topology_oracle.for_graph (Topology_oracle.rows_of g) ~source:(n / 2))
        (slots (Schedule.for_graph topology ~source:(n / 2)) n))
    (("radio", Topology.build (Deployment.uniform (Rng.create 6) ~n:200 ~width:12.0 ~height:12.0) (Propagation.friis 2.0))
    :: families ());
  List.iter
    (fun (name, deployment) ->
      let topology = Topology.build deployment (Propagation.disk_l2 2.0) in
      let n = Deployment.size deployment in
      Alcotest.(check (pair int (array int)))
        (name ^ ": for_nodes slots")
        (Topology_oracle.for_nodes deployment ~conflict_range:5.0 ~source:0)
        (slots (Schedule.for_nodes topology ~conflict_range:5.0 ~source:0) n))
    [
      ("uniform", Deployment.uniform (Rng.create 7) ~n:250 ~width:30.0 ~height:30.0);
      ("negative", shifted (Deployment.uniform (Rng.create 8) ~n:250 ~width:30.0 ~height:30.0) ~dx:(-15.0) ~dy:(-40.0));
      ("wide", Deployment.uniform (Rng.create 10) ~n:250 ~width:20_000.0 ~height:10.0);
    ]

(* Words allocated, minor and major, not counting promotions twice.  The
   minor count comes from [Gc.minor_words ()], which includes the current
   minor heap; [Gc.counters]' own minor count reads an eighth of it on
   OCaml 5.1, while its major count includes allocations still
   pending. *)
let words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* The build keeps only the flat rows, which a symmetric channel shares
   as the engine's fan-out rows: at the n = 10^4 uniform-disk scale cell
   (degree 12) it allocates at most twice the words the graph keeps live,
   the rows take at most half the 63 words per node the link-record rows
   took, and the graph holds at most the rows' words, the word entries'
   and n more: about 2.1 words per link, where a transposed copy of the
   rows took 4.17. *)
let test_build_words () =
  let n = 10_000 and radius = 4.0 in
  let side = sqrt (float_of_int n *. Float.pi *. radius *. radius /. 12.0) in
  let deployment = Deployment.uniform (Rng.split (Rng.create 42)) ~n ~width:side ~height:side in
  let before = words () in
  let topology = Topology.build deployment (Propagation.disk_l2 radius) in
  let allocated = words () -. before in
  let g = Topology.graph topology in
  let live = Obj.reachable_words (Obj.repr g) in
  let rows = Obj.reachable_words (Obj.repr (g.Graph.in_off, g.Graph.in_peer, g.Graph.in_pow)) in
  if allocated > 2.0 *. float_of_int live then
    Alcotest.failf "allocated %.0f words, more than twice the %d live" allocated live;
  if float_of_int rows /. float_of_int n > 31.5 then
    Alcotest.failf "rows take %.1f words per node, over 31.5" (float_of_int rows /. float_of_int n);
  let entries =
    match (Graph.csr g).Graph.words with None -> 0 | Some w -> Obj.reachable_words (Obj.repr w)
  in
  if live > rows + entries + n then
    Alcotest.failf "graph holds %d words (%.2f per link), over the rows' %d + entries' %d + n" live
      (float_of_int live /. float_of_int g.Graph.in_off.(n))
      rows entries

(* [Schedule.for_graph] allocates nothing per node: at n = 4 000 on a
   degree-8 expander the whole colouring takes its four n-slot arrays,
   about 4 words per node (a fresh n-slot array and list per node took
   about 6 500). *)
let test_for_graph_words () =
  let topology = Graphs.expander (Rng.create 1) ~n:4_000 ~degree:8 in
  let before = words () in
  ignore (Schedule.for_graph topology ~source:0);
  let allocated = words () -. before in
  if allocated > 5.0 *. 4_000.0 then Alcotest.failf "for_graph allocated %.0f words" allocated

(* --- Schedule ------------------------------------------------------------- *)

(* Graph.make rejects every row set the engine and [can_decode] would
   misread, one case per rejection.  [links] are (receiver, sender,
   power) triples on three nodes.  Which links decode is read off the
   powers, so there is no decode relation to disagree with them. *)
let graph_of ~links =
  Graph.make
    (Array.init 3 (fun i ->
         Array.of_list
           (List.filter_map (fun (r, peer, power) -> if r = i then Some (peer, power) else None) links)))

let graph_rejections =
  [
    ("peer out of range", [ (0, 3, 1.0) ], "Graph: link peer out of range");
    ("self-loop", [ (0, 0, 1.0) ], "Graph: self-loop");
    ("duplicate link", [ (0, 1, 0.5); (0, 1, 0.5) ], "Graph: duplicate link");
    ("NaN power", [ (0, 1, nan) ], "Graph: NaN link power");
    ("zero power", [ (0, 1, 0.0) ], "Graph: non-positive link power");
    ("negative power", [ (0, 1, -1.0) ], "Graph: non-positive link power");
  ]

let graph_rejection_case (label, links, message) =
  Alcotest.test_case label `Quick (fun () ->
      Alcotest.check_raises label (Invalid_argument message) (fun () -> ignore (graph_of ~links)))

(* The flat form's own rejections: offsets that disagree with the link
   arrays, and a row out of order (which [make] sorts away). *)
let test_graph_flat_rejections () =
  let offsets = Invalid_argument "Graph: row offsets disagree with the link arrays" in
  Alcotest.check_raises "last offset past the links" offsets (fun () ->
      ignore (Graph.of_incoming ~in_off:[| 0; 1; 2 |] ~in_peer:[| 1 |] ~in_pow:[| 1.0 |]));
  Alcotest.check_raises "powers shorter than peers" offsets (fun () ->
      ignore (Graph.of_incoming ~in_off:[| 0; 1; 1 |] ~in_peer:[| 1 |] ~in_pow:[||]));
  Alcotest.check_raises "offsets descend" offsets (fun () ->
      ignore (Graph.of_incoming ~in_off:[| 0; 1; 0; 1 |] ~in_peer:[| 1 |] ~in_pow:[| 1.0 |]));
  Alcotest.check_raises "row 0 descends" (Invalid_argument "Graph: row not ascending") (fun () ->
      ignore
        (Graph.of_incoming ~in_off:[| 0; 2; 2; 2 |] ~in_peer:[| 2; 1 |] ~in_pow:[| 1.0; 1.0 |]))

(* What the rejections leave: weak sensed links, decodable ones, and
   co-located nodes' infinite power. *)
let test_graph_make_accepts () =
  let g = graph_of ~links:[ (0, 2, 2.0); (0, 1, 0.5); (1, 0, 1.0); (2, 1, infinity) ] in
  Alcotest.(check bool) "decodes the power-2.0 link" true (Graph.can_decode g ~rx:0 ~tx:2);
  Alcotest.(check bool) "only senses the power-0.5 link" false (Graph.can_decode g ~rx:0 ~tx:1);
  Alcotest.(check bool) "senses the power-0.5 link" true (Graph.senses g ~rx:0 ~tx:1);
  Alcotest.(check bool) "senses nothing from node 0" false (Graph.senses g ~rx:2 ~tx:0);
  Alcotest.(check bool) "decodes the infinite link" true (Graph.can_decode g ~rx:2 ~tx:1);
  Alcotest.(check (list int)) "row 0 sorted by peer" [ 1; 2 ]
    (Array.to_list (Array.sub g.Graph.in_peer 0 2));
  Alcotest.(check bool) "asymmetric rows transposed, not shared" false (shares_rows g)

let test_schedule_phases () =
  Alcotest.(check int) "rounds per interval" 6 Schedule.rounds_per_interval;
  Alcotest.(check int) "interval" 2 (Schedule.interval_of_round 13);
  Alcotest.(check int) "phase" 1 (Schedule.phase_of_round 13)

let test_schedule_squares () =
  let squares = Squares.make ~side:1.0 ~width:12.0 ~height:12.0 in
  let s = Schedule.for_squares squares ~radius:2.0 in
  Alcotest.(check bool) "cycle is k^2+1" true (Schedule.cycle s > 1);
  (* Slot 0 is reserved for the source. *)
  for id = 0 to Squares.count squares - 1 do
    Alcotest.(check bool) "squares never use slot 0" true (Schedule.slot_of s id > 0)
  done;
  (* Adjacent squares never share a slot. *)
  for id = 0 to Squares.count squares - 1 do
    List.iter
      (fun nb ->
        Alcotest.(check bool) "adjacent differ" true
          (Schedule.slot_of s nb <> Schedule.slot_of s id))
      (Squares.neighbors squares id)
  done

(* The square schedule's slot of square (cx, cy) is 1 + (cx mod k) +
   k (cy mod k), cycle k^2 + 1; a grid with more columns than rows would
   catch transposed coordinates. *)
let test_schedule_squares_pattern () =
  List.iter
    (fun (width, height, radius) ->
      let squares = Squares.make ~side:1.0 ~width ~height in
      let s = Schedule.for_squares squares ~radius in
      let k = int_of_float (Float.round (sqrt (float_of_int (Schedule.cycle s - 1)))) in
      Alcotest.(check int) "cycle is k^2 + 1" ((k * k) + 1) (Schedule.cycle s);
      for id = 0 to Squares.count squares - 1 do
        let cx, cy = Squares.coords squares id in
        Alcotest.(check int)
          (Printf.sprintf "slot of square (%d, %d)" cx cy)
          (1 + (cx mod k) + (k * (cy mod k)))
          (Schedule.slot_of s id)
      done)
    [ (12.0, 12.0, 2.0); (17.0, 5.0, 1.0); (3.0, 11.0, 0.5) ]

let test_schedule_squares_reuse_distance () =
  let radius = 2.0 in
  let side = 1.0 in
  let squares = Squares.make ~side ~width:20.0 ~height:20.0 in
  let s = Schedule.for_squares squares ~radius in
  (* Same-slot squares must be farther apart than 3R at their closest. *)
  let n = Squares.count squares in
  for a = 0 to n - 1 do
    for b = a + 1 to n - 1 do
      if Schedule.slot_of s a = Schedule.slot_of s b then begin
        let ax, ay = Squares.coords squares a and bx, by = Squares.coords squares b in
        let gap_cells = max (abs (ax - bx)) (abs (ay - by)) - 1 in
        Alcotest.(check bool) "closest points beyond 3R" true
          (float_of_int gap_cells *. side >= 3.0 *. radius)
      end
    done
  done

let test_schedule_nodes () =
  let d = Deployment.grid ~width:8 ~height:8 in
  let t = Topology.build d (Propagation.disk_l2 2.0) in
  let s = Schedule.for_nodes t ~conflict_range:4.0 ~source:10 in
  Alcotest.(check int) "source owns slot 0" 0 (Schedule.slot_of s 10);
  let n = Deployment.size d in
  for i = 0 to n - 1 do
    Alcotest.(check bool) "slots within cycle" true (Schedule.slot_of s i < Schedule.cycle s);
    if i <> 10 then Alcotest.(check bool) "others never slot 0" true (Schedule.slot_of s i > 0)
  done;
  (* Conflicting nodes (within the conflict range) get distinct slots. *)
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let pi = d.Deployment.nodes.(i).Node.pos and pj = d.Deployment.nodes.(j).Node.pos in
      if Point.dist_l2 pi pj <= 4.0 && i <> 10 && j <> 10 then
        Alcotest.(check bool) "conflicts differ" true (Schedule.slot_of s i <> Schedule.slot_of s j)
    done
  done

(* Regression for the spatial-hash cell function: int_of_float truncates
   toward zero, which merged the two cells either side of each axis into
   one double-width cell for deployments straddling the origin.  With
   Float.floor every cell is exactly [conflict_range] wide, so the 3x3
   neighbour scan sees every conflicting pair — including pairs whose
   members sit on opposite sides of an axis. *)
let test_schedule_nodes_negative_coords () =
  let conflict_range = 2.0 in
  let positions =
    [|
      (-0.5, 0.3); (0.5, 0.3); (-0.2, -1.0); (0.4, 1.2); (-1.8, -1.7); (1.9, -1.9);
      (-3.9, 0.1); (3.8, -0.2); (0.0, 0.0); (-0.1, 3.9); (0.2, -3.8); (-2.1, 2.2);
    |]
  in
  let nodes = Array.mapi (fun i (x, y) -> Node.make i (point x y)) positions in
  let d = { Deployment.width = 8.0; height = 8.0; nodes } in
  let t = Topology.build d (Propagation.disk_l2 conflict_range) in
  let source = 8 in
  let s = Schedule.for_nodes t ~conflict_range ~source in
  Alcotest.(check int) "source owns slot 0" 0 (Schedule.slot_of s source);
  let n = Array.length nodes in
  (* The axis-straddling pair in particular conflicts (distance 1.0). *)
  Alcotest.(check bool) "straddling pair separated" true
    (Schedule.slot_of s 0 <> Schedule.slot_of s 1);
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if i <> source && j <> source then begin
        let pi = nodes.(i).Node.pos and pj = nodes.(j).Node.pos in
        if Point.dist_l2 pi pj <= conflict_range then
          Alcotest.(check bool)
            (Printf.sprintf "conflicting pair %d/%d separated" i j)
            true
            (Schedule.slot_of s i <> Schedule.slot_of s j)
      end
    done
  done

(* next_relevant_round against the obvious reference: scan forward round
   by round until a relevant interval. *)
let test_schedule_next_relevant () =
  let squares = Squares.make ~side:1.0 ~width:4.0 ~height:4.0 in
  let s = Schedule.for_squares squares ~radius:1.0 in
  let c = Schedule.cycle s in
  let reference relevant r =
    let horizon = Schedule.first_round_of_interval (Schedule.interval_of_round r + c + 1) in
    let rec scan q =
      if q >= horizon then max_int
      else if relevant.(Schedule.interval_of_round q mod c) then q
      else scan (q + 1)
    in
    scan r
  in
  let cases =
    [
      Array.init c (fun i -> i = 0);
      Array.init c (fun i -> i = c - 1);
      Array.init c (fun i -> i = 2 || i = 5);
      Array.init c (fun i -> i mod 3 = 1);
      Array.make c true;
    ]
  in
  List.iteri
    (fun case relevant ->
      let next = Schedule.next_relevant_round s ~relevant in
      for r = 0 to Schedule.first_round_of_interval (3 * c) do
        Alcotest.(check int)
          (Printf.sprintf "case %d, round %d" case r)
          (reference relevant r) (next r)
      done)
    cases;
  (* No relevant slot at all: the machine never wakes. *)
  let never = Schedule.next_relevant_round s ~relevant:(Array.make c false) in
  Alcotest.(check int) "all-false never wakes" max_int (never 0);
  Alcotest.(check bool) "wrong arity rejected" true
    (try
       let (_ : int -> int) = Schedule.next_relevant_round s ~relevant:[| true |] in
       false
     with Invalid_argument _ -> true)

let test_schedule_active_slot () =
  let squares = Squares.make ~side:1.0 ~width:4.0 ~height:4.0 in
  let s = Schedule.for_squares squares ~radius:1.0 in
  Alcotest.(check int) "wraps" (Schedule.active_slot s ~interval:0)
    (Schedule.active_slot s ~interval:(Schedule.cycle s))

(* --- Engine ----------------------------------------------------------------- *)

let line_topology n spacing radius =
  let nodes = Array.init n (fun i -> Node.make i (point (float_of_int i *. spacing) 0.0)) in
  let d = { Deployment.width = float_of_int (n - 1) *. spacing; height = 1.0; nodes } in
  Topology.build d (Propagation.disk_l2 radius)

let tx_once_machine payload =
  {
    Engine.act = (fun round -> if round = 0 then Engine.Transmit payload else Engine.Silent);
    observe = (fun _ _ -> ());
    observe_packed = None;
    delivered = (fun () -> None);
    next_active = Engine.always_active;
  }

let recorder () =
  let log = ref [] in
  let machine =
    {
      Engine.act = (fun _ -> Engine.Silent);
      observe = (fun round obs -> log := (round, obs) :: !log);
      observe_packed = None;
      delivered = (fun () -> None);
      (* The log expects an observation every round, so opt out of the
         sparse engine's skipping. *)
      next_active = Engine.always_active;
    }
  in
  (machine, log)

let obs_at log round =
  match List.assoc_opt round !log with Some o -> o | None -> Alcotest.fail "round not observed"

let test_engine_single_tx () =
  let topology = line_topology 3 1.0 1.5 in
  let rx0, log0 = recorder () in
  let rx2, log2 = recorder () in
  let machines = [| rx0; tx_once_machine 42; rx2 |] in
  (* Nobody delivers, so the run executes exactly [cap] rounds. *)
  let waiters = Array.make 3 true in
  let result = Engine.run ~topology ~machines ~waiters ~cap:1 () in
  Alcotest.(check bool) "neighbour hears it" true (obs_at log0 0 = Channel.Clear 42);
  Alcotest.(check bool) "other side hears it" true (obs_at log2 0 = Channel.Clear 42);
  Alcotest.(check (array int)) "broadcast counted" [| 0; 1; 0 |] result.Engine.broadcasts

let test_engine_collision () =
  let topology = line_topology 3 1.0 1.5 in
  let rx, log = recorder () in
  let machines = [| tx_once_machine 1; rx; tx_once_machine 2 |] in
  let waiters = Array.make 3 true in
  ignore (Engine.run ~topology ~machines ~waiters ~cap:1 ());
  Alcotest.(check bool) "middle observes collision" true (obs_at log 0 = Channel.Busy)

(* Rows are stored ascending, but the fan-out deals its per-link loss
   coins to receivers descending, the order lossy runs have always drawn
   them in: one transmitter, twenty receivers on a unit circle, one coin
   per link, against the same coins dealt from the highest id down. *)
let test_engine_loss_draw_order () =
  let m = 20 in
  let nodes =
    Array.init (m + 1) (fun i ->
        let a = 2.0 *. Float.pi *. float_of_int i /. float_of_int m in
        Node.make i (if i = 0 then point 10.0 10.0 else point (10.0 +. cos a) (10.0 +. sin a)))
  in
  let topology =
    Topology.build { Deployment.width = 20.0; height = 20.0; nodes } (Propagation.friis 4.0)
  in
  let channel = { Channel.capture_ratio = infinity; loss_prob = 0.5 } in
  let coins = Rng.create 7 in
  let lost = Array.make (m + 1) false in
  for j = m downto 1 do
    lost.(j) <- Rng.bernoulli coins 0.5
  done;
  List.iter
    (fun (name, mode) ->
      let receivers = Array.init (m + 1) (fun _ -> recorder ()) in
      let machines =
        Array.mapi (fun i (rx, _) -> if i = 0 then tx_once_machine 5 else rx) receivers
      in
      ignore
        (Engine.run ~mode ~rng:(Rng.create 7) ~channel ~topology ~machines
           ~waiters:(Array.make (m + 1) true) ~cap:1 ());
      for j = 1 to m do
        Alcotest.(check bool)
          (Printf.sprintf "%s: receiver %d" name j)
          true
          (obs_at (snd receivers.(j)) 0 = if lost.(j) then Channel.Busy else Channel.Clear 5)
      done)
    [ ("dense", `Dense); ("sparse", `Sparse) ]

let test_engine_out_of_range_silence () =
  let topology = line_topology 3 2.0 1.5 in
  (* spacing 2.0 > radius: nobody hears anybody *)
  let rx, log = recorder () in
  let machines = [| tx_once_machine 1; rx; Engine.silent_machine |] in
  let waiters = Array.make 3 true in
  ignore (Engine.run ~topology ~machines ~waiters ~cap:1 ());
  Alcotest.(check bool) "silence" true (obs_at log 0 = Channel.Silence)

let test_engine_waiters_stop () =
  let topology = line_topology 2 1.0 1.5 in
  let delivered = ref None in
  let receiver =
    {
      Engine.act = (fun _ -> Engine.Silent);
      observe =
        (fun _ obs ->
          match obs with
          | Channel.Clear _ -> delivered := Some (Bitvec.of_string "1")
          | Channel.Silence | Channel.Busy -> ());
      observe_packed = None;
      delivered = (fun () -> !delivered);
      next_active = Engine.always_active;
    }
  in
  let sender =
    {
      Engine.act = (fun _ -> Engine.Transmit 0);
      observe = (fun _ _ -> ());
      observe_packed = None;
      delivered = (fun () -> Some (Bitvec.of_string "1"));
      next_active = Engine.always_active;
    }
  in
  let result =
    Engine.run ~topology ~machines:[| sender; receiver |] ~waiters:[| false; true |] ~cap:1000 ()
  in
  Alcotest.(check int) "stops right after delivery" 1 result.Engine.rounds_used;
  Alcotest.(check bool) "no cap hit" false result.Engine.hit_cap;
  Alcotest.(check int) "completion round recorded" 0 result.Engine.completion_round.(1)

let test_engine_idle_stop () =
  let topology = line_topology 2 1.0 1.5 in
  let machines = [| Engine.silent_machine; Engine.silent_machine |] in
  let result =
    Engine.run ~idle_stop:50 ~topology ~machines ~waiters:[| true; true |] ~cap:100000 ()
  in
  Alcotest.(check int) "stopped by idleness" 50 result.Engine.rounds_used

let test_engine_cap () =
  let topology = line_topology 2 1.0 1.5 in
  let chatty =
    {
      Engine.act = (fun _ -> Engine.Transmit 0);
      observe = (fun _ _ -> ());
      observe_packed = None;
      delivered = (fun () -> None);
      next_active = Engine.always_active;
    }
  in
  let result =
    Engine.run ~topology ~machines:[| chatty; Engine.silent_machine |] ~waiters:[| true; true |]
      ~cap:77 ()
  in
  Alcotest.(check int) "capped" 77 result.Engine.rounds_used;
  Alcotest.(check bool) "hit_cap" true result.Engine.hit_cap

let test_engine_stop_when () =
  let topology = line_topology 2 1.0 1.5 in
  let machines = [| Engine.silent_machine; Engine.silent_machine |] in
  let calls = ref 0 in
  let stop_when () =
    incr calls;
    !calls >= 3
  in
  let result =
    Engine.run ~stop_when ~topology ~machines ~waiters:[| true; true |] ~cap:100000 ()
  in
  (* stop_when is polled every 96 rounds. *)
  Alcotest.(check int) "stopped at third poll" 192 result.Engine.rounds_used

let test_engine_stop_stride () =
  let topology = line_topology 2 1.0 1.5 in
  let machines = [| Engine.silent_machine; Engine.silent_machine |] in
  let calls = ref 0 in
  let stop_when () =
    incr calls;
    !calls >= 2
  in
  let result =
    Engine.run ~stop_when ~stop_stride:7 ~topology ~machines ~waiters:[| true; true |]
      ~cap:100000 ()
  in
  Alcotest.(check int) "custom stride honoured" 7 result.Engine.rounds_used

(* A stride below 1 used to divide by zero (0) or, in the sparse loop,
   step the stride walk backwards forever (-1). *)
let test_engine_stop_stride_rejected () =
  let topology = line_topology 2 1.0 1.5 in
  let machines = [| Engine.silent_machine; Engine.silent_machine |] in
  List.iter
    (fun (label, mode) ->
      List.iter
        (fun stop_stride ->
          Alcotest.check_raises
            (Printf.sprintf "%s, stride %d" label stop_stride)
            (Invalid_argument "Engine.run: stop_stride must be >= 1")
            (fun () ->
              ignore
                (Engine.run ~mode ~stop_when:(fun () -> false) ~stop_stride ~topology ~machines
                   ~waiters:[| true; true |] ~cap:1000 ())))
        [ 0; -1 ])
    [ ("dense", `Dense); ("sparse", `Sparse) ]

(* Bad channels fail at entry, not at the first decodable fan-out (which
   may never come: here nobody transmits). *)
let test_engine_bad_channel_rejected () =
  let topology = line_topology 2 1.0 1.5 in
  let machines = [| Engine.silent_machine; Engine.silent_machine |] in
  let cases =
    [
      ( "lossy without an rng",
        { Channel.ideal with Channel.loss_prob = 0.1 },
        "Engine.run: loss_prob > 0 requires an rng" );
      ( "NaN loss_prob",
        { Channel.ideal with Channel.loss_prob = nan },
        "Engine.run: NaN channel parameter" );
      ( "NaN capture_ratio",
        { Channel.ideal with Channel.capture_ratio = nan },
        "Engine.run: NaN channel parameter" );
    ]
  in
  List.iter
    (fun (mname, mode) ->
      List.iter
        (fun (label, channel, message) ->
          Alcotest.check_raises (mname ^ ", " ^ label) (Invalid_argument message) (fun () ->
              ignore
                (Engine.run ~mode ~channel ~topology ~machines ~waiters:[| true; true |]
                   ~cap:10 ())))
        cases)
    [ ("dense", `Dense); ("sparse", `Sparse) ]

(* The point of the sparse loop: a machine with a periodic wakeup contract
   is polled only in the rounds it declared, and a contract-silent
   listener is woken only when a transmission actually reaches it — yet
   the externally visible result matches the dense reference. *)
let test_engine_sparse_skips_idle_rounds () =
  let run mode =
    let topology = line_topology 2 1.0 1.5 in
    let acts = ref 0 in
    let tx =
      {
        Engine.act =
          (fun r ->
            incr acts;
            if r mod 10 = 0 then Engine.Transmit r else Engine.Silent);
        observe = (fun _ _ -> ());
        observe_packed = None;
        delivered = (fun () -> None);
        next_active = (fun r -> (r + 9) / 10 * 10);
      }
    in
    let observations = ref [] in
    let rx =
      {
        Engine.act = (fun _ -> Engine.Silent);
        observe = (fun r obs -> observations := (r, obs) :: !observations);
        observe_packed = None;
        delivered = (fun () -> None);
        next_active = Engine.never_active;
      }
    in
    let result =
      Engine.run ~mode ~topology ~machines:[| tx; rx |] ~waiters:[| false; true |] ~cap:100 ()
    in
    (result, !acts, List.rev !observations)
  in
  let sparse, sparse_acts, sparse_obs = run `Sparse in
  let dense, dense_acts, dense_obs = run `Dense in
  Alcotest.(check int) "runs to the cap" 100 sparse.Engine.rounds_used;
  Alcotest.(check bool) "hit_cap" true sparse.Engine.hit_cap;
  Alcotest.(check int) "same rounds as dense" dense.Engine.rounds_used sparse.Engine.rounds_used;
  Alcotest.(check (array int)) "same broadcasts as dense" dense.Engine.broadcasts
    sparse.Engine.broadcasts;
  Alcotest.(check int) "ten transmissions" 10 sparse.Engine.broadcasts.(0);
  (* Dense polls the transmitter all 100 rounds; sparse only at its ten
     declared wakeups. *)
  Alcotest.(check int) "dense polls every round" 100 dense_acts;
  Alcotest.(check int) "sparse polls only scheduled rounds" 10 sparse_acts;
  (* The listener is woken exactly by the ten receptions, and sees the
     same payloads the dense run delivered (whose other 90 observations
     are the implied silence). *)
  let clear_obs obs =
    List.filter_map
      (fun (r, o) -> match o with Channel.Clear p -> Some (r, p) | _ -> None)
      obs
  in
  Alcotest.(check int) "listener woken per reception" 10 (List.length sparse_obs);
  Alcotest.(check int) "every wakeup decoded" 10 (List.length (clear_obs sparse_obs));
  Alcotest.(check bool) "receptions match dense" true
    (clear_obs sparse_obs = clear_obs dense_obs);
  Alcotest.(check bool) "skipped observations were silence" true
    (List.for_all
       (fun (_, o) -> match o with Channel.Clear _ -> true | o -> o = Channel.Silence)
       dense_obs)

(* The sparse loop's poll set, on a line long enough to span three 62-id
   words: [act] runs exactly on the scheduled machines, [observe] exactly
   on scheduled ∪ touched in ascending id, and a construction-time
   delivery by a machine that is never polled still completes at round 0.
   The periodic wakers sit on both sides of the first word boundary (61,
   62) and at the last id of the second word (123). *)
let test_engine_poll_set_contract () =
  let n = 130 and cap = 30 in
  let topology = line_topology n 1.0 1.5 in
  let wakers = [ 61; 62; 123 ] and deliverer = 100 in
  let acts = ref [] and observes = ref [] in
  let machine i =
    let waker = List.mem i wakers in
    {
      Engine.act =
        (fun r ->
          acts := (r, i) :: !acts;
          if waker && r mod 10 = 0 then Engine.Transmit i else Engine.Silent);
      observe = (fun r _ -> observes := (r, i) :: !observes);
      observe_packed = None;
      delivered = (fun () -> if i = deliverer then Some (Bitvec.of_string "1") else None);
      next_active = (if waker then fun r -> (r + 4) / 5 * 5 else Engine.never_active);
    }
  in
  (* Node 0 waits forever, so the run lasts [cap] rounds. *)
  let waiters = Array.init n (fun i -> i = 0) in
  let result =
    Engine.run ~mode:`Sparse ~topology ~machines:(Array.init n machine) ~waiters ~cap ()
  in
  let in_round log r =
    List.rev (List.filter_map (fun (q, i) -> if q = r then Some i else None) !log)
  in
  for r = 0 to cap - 1 do
    (* Machine 0 is stamped for round 0, which always executes. *)
    let scheduled = (if r = 0 then [ 0 ] else []) @ if r mod 5 = 0 then wakers else [] in
    let touched = if r mod 10 = 0 then List.concat_map (fun i -> [ i - 1; i + 1 ]) wakers else [] in
    let label what = Printf.sprintf "%s at round %d" what r in
    Alcotest.(check (list int)) (label "act") scheduled (in_round acts r);
    Alcotest.(check (list int))
      (label "observe, ascending")
      (List.sort_uniq Int.compare (scheduled @ touched))
      (in_round observes r)
  done;
  Alcotest.(check int) "never-polled deliverer completes at round 0" 0
    result.Engine.completion_round.(deliverer);
  Alcotest.(check int) "ran to the cap" cap result.Engine.rounds_used

(* The sparse loop's calendar holds one entry per (machine, round).  Two
   beacons transmit every round to sleepers that always ask for the same
   far wake round, so each round touches the sleepers and re-asks their
   contract; re-queuing them on every poll would grow the heap by one
   entry per round.  The machines allocate nothing per round (a
   preallocated action, packed observers), so the words [Engine.run]
   allocates may not depend on the run's length: 0 words per extra
   executed round, untraced, on both fan-in paths (the collision-count
   words under [Channel.ideal], the per-link power sums with loss draws
   under [Channel.realistic]) and with and without a listener set. *)
let test_engine_calendar_growth () =
  let n = 8 in
  let topology = line_topology n 1.0 2.5 in
  Alcotest.(check bool) "the line has collision-count word entries" true
    (Option.is_some (Topology.graph topology).Graph.csr.Graph.words);
  let beep = Engine.Transmit 7 in
  let odd = Engine.word_set n in
  for i = 0 to n - 1 do
    if i land 1 = 1 then Engine.set_add odd i
  done;
  let words_of_run ~channel ~listeners cap =
    let beacon =
      {
        Engine.act = (fun _ -> beep);
        observe = (fun _ _ -> ());
        observe_packed = Some (fun _ _ _ -> ());
        delivered = (fun () -> None);
        next_active = Engine.always_active;
      }
    in
    let sleeper =
      {
        Engine.act = (fun _ -> Engine.Silent);
        observe = (fun _ _ -> ());
        observe_packed = Some (fun _ _ _ -> ());
        delivered = (fun () -> None);
        next_active = (fun _ -> cap - 1);
      }
    in
    let machines = Array.init n (fun i -> if i = 0 || i = 4 then beacon else sleeper) in
    let waiters = Array.init n (fun i -> i = n - 1) in
    let listeners = if listeners then Some (fun _ -> odd) else None in
    let rng = Rng.create 5 in
    let before = words () in
    let result =
      Engine.run ~mode:`Sparse ~rng ~channel ?listeners ~topology ~machines ~waiters ~cap ()
    in
    let allocated = words () -. before in
    Alcotest.(check int) "ran to the cap" cap result.Engine.rounds_used;
    allocated
  in
  List.iter
    (fun (name, channel) ->
      List.iter
        (fun listeners ->
          let short = words_of_run ~channel ~listeners 2_000 in
          let long = words_of_run ~channel ~listeners 20_000 in
          let per_round = (long -. short) /. 18_000.0 in
          if per_round > 0.0 then
            Alcotest.failf
              "%s, listener set %b: %.3f words per extra executed round (%.0f at cap 2000, %.0f \
               at cap 20000)"
              name listeners per_round short long)
        [ false; true ])
    [ ("ideal", Channel.ideal); ("realistic", Channel.realistic) ]

(* The engine's flat-aggregate channel resolution must agree with the
   list-based reference resolution (Channel_oracle.resolve) on arbitrary
   receiver configurations. *)
let prop_engine_matches_reference =
  QCheck.Test.make ~name:"engine resolution = Channel.resolve" ~count:300
    QCheck.(pair (int_bound 10_000) (int_range 0 6))
    (fun (seed, k) ->
      let rng = Rng.create seed in
      let prop = Propagation.friis 4.0 in
      (* Receiver at the origin, k transmitters at random distances. *)
      let nodes =
        Array.init (k + 1) (fun i ->
            if i = 0 then Node.make 0 (point 0.0 0.0)
            else begin
              let d = 0.5 +. Rng.float rng 9.0 in
              let angle = Rng.float rng 6.28318 in
              Node.make i (point (d *. cos angle) (d *. sin angle))
            end)
      in
      (* Positions may be negative; shift into a positive frame. *)
      let nodes =
        Array.map
          (fun (n : Node.t) ->
            Node.make n.Node.id (point (n.Node.pos.Point.x +. 20.0) (n.Node.pos.Point.y +. 20.0)))
          nodes
      in
      let d = { Deployment.width = 40.0; height = 40.0; nodes } in
      let topology = Topology.build d prop in
      let observed = ref None in
      let rx =
        {
          Engine.act = (fun _ -> Engine.Silent);
          observe = (fun _ obs -> observed := Some obs);
          observe_packed = None;
          delivered = (fun () -> None);
          next_active = Engine.always_active;
        }
      in
      let machines = Array.init (k + 1) (fun i -> if i = 0 then rx else tx_once_machine i) in
      ignore (Engine.run ~topology ~machines ~waiters:(Array.make (k + 1) true) ~cap:1 ());
      let { Graph.in_off; in_peer; in_pow; _ } = Topology.graph topology in
      let txs =
        List.init (in_off.(1) - in_off.(0)) (fun k ->
            { Channel_oracle.power = in_pow.(k); payload = in_peer.(k) })
      in
      let expected =
        Channel_oracle.resolve Channel.ideal ~sense_threshold:(Propagation.sense_threshold prop) txs
      in
      match (!observed, expected) with
      | Some got, want -> Channel.equal Int.equal got want
      | None, _ -> false)

let qtests =
  [
    prop_engine_matches_reference;
    prop_build_matches_oracle;
    prop_of_edges_matches_oracle;
    prop_of_incoming_shares_symmetric_rows;
  ]

let () =
  Alcotest.run "sim"
    [
      ( "deployment",
        [
          Alcotest.test_case "grid" `Quick test_grid_deployment;
          Alcotest.test_case "uniform" `Quick test_uniform_deployment;
          Alcotest.test_case "clustered" `Quick test_clustered_deployment;
          Alcotest.test_case "center node" `Quick test_center_node;
        ] );
      ( "topology",
        [
          Alcotest.test_case "grid neighbours" `Quick test_topology_grid_neighbors;
          Alcotest.test_case "friis sense superset" `Quick test_topology_friis_sense_superset;
          Alcotest.test_case "hops and diameter" `Quick test_topology_hops;
          Alcotest.test_case "disconnected" `Quick test_topology_disconnected;
          Alcotest.test_case "negative coordinates" `Quick test_topology_negative_coords;
          Alcotest.test_case "can_decode" `Quick test_topology_can_decode;
          Alcotest.test_case "sorted rows and lookup" `Quick test_topology_sorted_rows_and_lookup;
        ] );
      ( "csr oracle",
        [
          Alcotest.test_case "edge-case layouts" `Quick test_build_oracle_edge_cases;
          Alcotest.test_case "cell table is O(n)" `Quick test_cell_index_size;
          Alcotest.test_case "graph families" `Quick test_families_oracle;
          Alcotest.test_case "schedules" `Quick test_schedules_oracle;
          Alcotest.test_case "build words at n = 10^4" `Quick test_build_words;
          Alcotest.test_case "for_graph words at n = 4000" `Quick test_for_graph_words;
        ] );
      ( "graph",
        Alcotest.test_case "valid rows accepted" `Quick test_graph_make_accepts
        :: Alcotest.test_case "offsets disagree with links" `Quick test_graph_flat_rejections
        :: List.map graph_rejection_case graph_rejections );
      ( "schedule",
        [
          Alcotest.test_case "phases" `Quick test_schedule_phases;
          Alcotest.test_case "squares" `Quick test_schedule_squares;
          Alcotest.test_case "square slot pattern" `Quick test_schedule_squares_pattern;
          Alcotest.test_case "square reuse distance" `Quick test_schedule_squares_reuse_distance;
          Alcotest.test_case "nodes" `Quick test_schedule_nodes;
          Alcotest.test_case "nodes straddling the origin" `Quick
            test_schedule_nodes_negative_coords;
          Alcotest.test_case "next relevant round" `Quick test_schedule_next_relevant;
          Alcotest.test_case "active slot wraps" `Quick test_schedule_active_slot;
        ] );
      ( "engine",
        [
          Alcotest.test_case "single tx" `Quick test_engine_single_tx;
          Alcotest.test_case "collision" `Quick test_engine_collision;
          Alcotest.test_case "out of range" `Quick test_engine_out_of_range_silence;
          Alcotest.test_case "waiters stop" `Quick test_engine_waiters_stop;
          Alcotest.test_case "idle stop" `Quick test_engine_idle_stop;
          Alcotest.test_case "round cap" `Quick test_engine_cap;
          Alcotest.test_case "stop_when polling" `Quick test_engine_stop_when;
          Alcotest.test_case "stop_when custom stride" `Quick test_engine_stop_stride;
          Alcotest.test_case "stop_stride below 1 rejected" `Quick
            test_engine_stop_stride_rejected;
          Alcotest.test_case "bad channel rejected at entry" `Quick
            test_engine_bad_channel_rejected;
          Alcotest.test_case "sparse mode skips idle rounds" `Quick
            test_engine_sparse_skips_idle_rounds;
          Alcotest.test_case "sparse poll set across words" `Quick test_engine_poll_set_contract;
          Alcotest.test_case "calendar does not grow with run length" `Quick test_engine_calendar_growth;
          Alcotest.test_case "loss coins dealt descending" `Quick test_engine_loss_draw_order;
        ] );
      ("properties", List.map (fun t -> QCheck_alcotest.to_alcotest ~long:false t) qtests);
    ]
