(* Synthetic graph families and their plumbing through Scenario.

   Three layers are exercised here: the generators themselves (structural
   invariants under QCheck randomisation plus seed determinism), the
   Topology wrapper (synthetic graphs must present sensed == rx at the
   decode threshold and answer reach queries with the embedded coordinate
   range), and the Scenario layer (fail-fast [Unreachable], selective
   jamming, and dense/sparse byte-equivalence on the explicit graph
   classes — the wakeup-driven loop has no geometric assumptions to hide
   behind there). *)

let structural name topology =
  let g = Topology.graph topology in
  if not (Graph.is_symmetric g) then QCheck.Test.fail_reportf "%s: asymmetric decode edge" name;
  if not (Graph.is_connected g) then QCheck.Test.fail_reportf "%s: disconnected" name;
  if Topology.is_geometric topology then QCheck.Test.fail_reportf "%s: not Synthetic" name;
  (* Synthetic topologies carry no propagation model: the sense graph is
     the decode graph, at exactly the decode threshold. *)
  Array.iteri
    (fun k power ->
      if power <> 1.0 then
        QCheck.Test.fail_reportf "%s: link %d (peer %d) not at power 1.0" name k g.Graph.in_peer.(k))
    g.Graph.in_pow;
  g

let edge_count g =
  Array.length g.Graph.in_peer / 2

let prop_grid_holes =
  QCheck.Test.make ~name:"grid-with-holes: connected 4-grid minus at most [holes] nodes"
    ~count:60
    QCheck.(quad (int_range 2 8) (int_range 2 8) (int_bound 20) (int_bound 10_000))
    (fun (width, height, holes, seed) ->
      let holes = min holes ((width * height) - 2) in
      let t = Graphs.grid_with_holes (Rng.create seed) ~width ~height ~holes in
      let g = structural "grid_holes" t in
      let n = Graph.size g in
      if n < (width * height) - holes || n > width * height then
        QCheck.Test.fail_reportf "size %d outside [%d, %d]" n ((width * height) - holes)
          (width * height);
      if Graph.max_degree g > 4 then
        QCheck.Test.fail_reportf "degree %d exceeds 4-adjacency" (Graph.max_degree g);
      true)

let prop_corridor =
  QCheck.Test.make ~name:"corridor: exact size, connected, rooms reachable only through halls"
    ~count:40
    QCheck.(quad (int_range 2 4) (int_range 2 5) (int_range 2 5) (int_range 1 4))
    (fun (rooms, room_w, room_h, hall_len) ->
      let t = Graphs.corridor ~rooms ~room_w ~room_h ~hall_len in
      let g = structural "corridor" t in
      let expected = (rooms * room_w * room_h) + ((rooms - 1) * hall_len) in
      if Graph.size g <> expected then
        QCheck.Test.fail_reportf "size %d, expected %d" (Graph.size g) expected;
      (* Every inter-room path crosses every hall: the hop diameter is at
         least the total hall length. *)
      let diameter = Graph.hop_diameter_from g 0 in
      if diameter < (rooms - 1) * hall_len then
        QCheck.Test.fail_reportf "diameter %d below hall total %d" diameter
          ((rooms - 1) * hall_len);
      true)

let prop_triangulation =
  QCheck.Test.make ~name:"triangulation: planar edge bound and full cell coverage" ~count:60
    QCheck.(
      quad (int_range 2 8) (int_range 2 8)
        (float_range 0.0 0.4 (* clamped to < 0.25 by the generator *))
        (int_bound 10_000))
    (fun (cols, rows, jitter, seed) ->
      let t = Graphs.triangulation (Rng.create seed) ~cols ~rows ~jitter in
      let g = structural "triangulation" t in
      let n = Graph.size g in
      if n <> (cols + 1) * (rows + 1) then
        QCheck.Test.fail_reportf "size %d, expected %d" n ((cols + 1) * (rows + 1));
      let edges = edge_count g in
      (* Planarity (Euler): at most 3n - 6 edges.  Construction: all cell
         sides plus exactly one diagonal per cell. *)
      let sides = (cols * (rows + 1)) + (rows * (cols + 1)) in
      let expected = sides + (cols * rows) in
      if edges <> expected then QCheck.Test.fail_reportf "%d edges, expected %d" edges expected;
      if edges > (3 * n) - 6 then QCheck.Test.fail_reportf "%d edges breaks planarity bound" edges;
      true)

let prop_expander =
  QCheck.Test.make ~name:"expander: degrees within [2, degree], connected ring backbone"
    ~count:60
    QCheck.(triple (int_range 4 100) (int_range 3 6) (int_bound 10_000))
    (fun (n, degree, seed) ->
      let t = Graphs.expander (Rng.create seed) ~n ~degree in
      let g = structural "expander" t in
      if Graph.size g <> n then QCheck.Test.fail_reportf "size %d, expected %d" (Graph.size g) n;
      for i = 0 to n - 1 do
        let d = Graph.degree g i in
        if d < 2 || d > degree then
          QCheck.Test.fail_reportf "node %d degree %d outside [2, %d]" i d degree
      done;
      true)

let prop_lattice =
  QCheck.Test.make ~name:"lattice: Moore adjacency with Chebyshev hop metric" ~count:40
    QCheck.(pair (int_range 2 8) (int_range 2 8))
    (fun (width, height) ->
      let t = Graphs.lattice ~width ~height in
      let g = structural "lattice" t in
      if Graph.size g <> width * height then
        QCheck.Test.fail_reportf "size %d, expected %d" (Graph.size g) (width * height);
      if Graph.max_degree g > 8 then
        QCheck.Test.fail_reportf "degree %d exceeds Moore adjacency" (Graph.max_degree g);
      (* Moore hops are the Chebyshev distance: from the corner, exactly
         max(width, height) - 1. *)
      let diameter = Graph.hop_diameter_from g 0 in
      if diameter <> max width height - 1 then
        QCheck.Test.fail_reportf "corner eccentricity %d, expected %d" diameter
          (max width height - 1);
      true)

let prop_seed_determinism =
  QCheck.Test.make ~name:"randomised generators are pure functions of the seed" ~count:30
    QCheck.(int_bound 100_000)
    (fun seed ->
      let same_rx a b =
        let ga = Topology.graph a and gb = Topology.graph b in
        ga.Graph.in_off = gb.Graph.in_off && ga.Graph.in_peer = gb.Graph.in_peer
      in
      let twice f = same_rx (f (Rng.create seed)) (f (Rng.create seed)) in
      twice (fun rng -> Graphs.grid_with_holes rng ~width:6 ~height:5 ~holes:6)
      && twice (fun rng -> Graphs.triangulation rng ~cols:5 ~rows:4 ~jitter:0.2)
      && twice (fun rng -> Graphs.expander rng ~n:40 ~degree:4))

(* --- Scenario plumbing ------------------------------------------------- *)

let graph_spec ~deployment ~protocol =
  {
    Scenario.default with
    Scenario.deployment;
    message = Bitvec.of_string "101";
    protocol;
    cap = 120_000;
    seed = 11;
  }

let test_reach_is_coord_range () =
  let t = Graphs.corridor ~rooms:2 ~room_w:3 ~room_h:3 ~hall_len:2 in
  (match Topology.kind t with
  | Topology.Synthetic { coord_range; _ } ->
    Alcotest.(check (float 0.0)) "sense_reach" coord_range (Topology.sense_reach t);
    Alcotest.(check (float 0.0)) "rx_reach" coord_range (Topology.rx_reach t);
    Alcotest.(check bool) "reach covers an edge" true (coord_range >= 1.0)
  | Topology.Radio _ -> Alcotest.fail "corridor built a Radio topology");
  Alcotest.(check string) "family" "corridor" (Topology.family t)

let test_unreachable_fail_fast () =
  (* 30 nodes with R=1 on a 40x40 map: the decode graph is shattered, and
     run must say so before executing a single round. *)
  let spec =
    {
      Scenario.default with
      Scenario.map_w = 40.0;
      map_h = 40.0;
      deployment = Scenario.Uniform 30;
      radius = 1.0;
      message = Bitvec.of_string "101";
      cap = 1_000;
      seed = 3;
    }
  in
  (match Scenario.run spec with
  | exception Scenario.Unreachable { unreachable; total } ->
    Alcotest.(check int) "total" 30 total;
    Alcotest.(check bool) "some unreachable" true (unreachable > 0)
  | _ -> Alcotest.fail "expected Scenario.Unreachable");
  (* The opt-out reports the same deployment as partial coverage instead. *)
  let result = Scenario.run { spec with Scenario.allow_unreachable = true } in
  let summary = Scenario.summarize result in
  Alcotest.(check bool) "partial coverage" true (summary.Scenario.completion_rate < 1.0)

let test_selective_jam_safe () =
  (* Schedule-aware jammers can stall MultiPathRB but never corrupt it:
     every delivery that does happen is the source's message. *)
  let spec =
    {
      (graph_spec
         ~deployment:(Scenario.Lattice { width = 8; height = 8 })
         ~protocol:(Scenario.Multi_path { tolerance = 1 }))
      with
      Scenario.faults = Scenario.Selective_jam { fraction = 0.1; budget = 40; probability = 1.0 };
    }
  in
  let summary = Scenario.summarize (Scenario.run spec) in
  Alcotest.(check (float 0.0))
    "no wrong deliveries" 1.0 summary.Scenario.correct_of_delivered;
  Alcotest.(check bool) "someone still delivers" true (summary.Scenario.delivered_any > 0)

(* --- dense/sparse equivalence on explicit graphs ----------------------- *)

let check_equivalent name spec =
  let dense_trace, dense = Determinism.capture_spec ~mode:`Dense spec in
  let sparse_trace, sparse = Determinism.capture_spec ~mode:`Sparse spec in
  (match Determinism.diff dense_trace sparse_trace with
  | Determinism.Deterministic _ -> ()
  | Determinism.Diverged _ as o ->
    Alcotest.failf "%s: dense/sparse traces differ: %s" name (Determinism.outcome_to_string o));
  let d = dense.Scenario.engine and s = sparse.Scenario.engine in
  Alcotest.(check int) (name ^ ": rounds_used") d.Engine.rounds_used s.Engine.rounds_used;
  Alcotest.(check (array int)) (name ^ ": broadcasts") d.Engine.broadcasts s.Engine.broadcasts;
  Alcotest.(check (array int))
    (name ^ ": completion rounds")
    d.Engine.completion_round s.Engine.completion_round

(* One graph class per protocol, rotating so every new deployment kind and
   every protocol (including CPA) runs under both engine loops. *)
let equivalence_cases =
  [
    ("nw1/grid-holes", Scenario.Neighbor_watch { votes = 1 },
     Scenario.Grid_holes { width = 6; height = 5; holes = 4 });
    ("nw2/corridor", Scenario.Neighbor_watch { votes = 2 },
     Scenario.Corridor { rooms = 2; room_w = 3; room_h = 3; hall_len = 2 });
    ("mp1/triangulated", Scenario.Multi_path { tolerance = 1 },
     Scenario.Triangulated { cols = 4; rows = 4; jitter = 0.2 });
    ("epi/expander", Scenario.Epidemic, Scenario.Expander { n = 30; degree = 4 });
    ("cpa1/lattice", Scenario.Certified { tolerance = 1 },
     Scenario.Lattice { width = 6; height = 6 });
  ]

let equivalence_tests =
  List.map
    (fun (name, protocol, deployment) ->
      Alcotest.test_case name `Quick (fun () ->
          check_equivalent name (graph_spec ~deployment ~protocol)))
    equivalence_cases

let () =
  Alcotest.run "graphs"
    [
      ( "generator invariants",
        List.map
          (fun t -> QCheck_alcotest.to_alcotest ~long:false t)
          [
            prop_grid_holes; prop_corridor; prop_triangulation; prop_expander; prop_lattice;
            prop_seed_determinism;
          ] );
      ( "scenario plumbing",
        [
          Alcotest.test_case "synthetic reach = coord_range" `Quick test_reach_is_coord_range;
          Alcotest.test_case "Unreachable fail-fast" `Quick test_unreachable_fail_fast;
          Alcotest.test_case "selective jam never corrupts" `Quick test_selective_jam_safe;
        ] );
      ("dense/sparse on explicit graphs", equivalence_tests);
    ]
