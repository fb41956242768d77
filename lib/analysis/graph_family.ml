(* G1: the graph-class protocol comparison.

   The paper evaluates on uniform deployments in a square, where the
   radio model makes the decode graph a unit-disk-like graph.  The
   explicit graph families (Graphs, plumbed through
   Scenario.deployment_kind) remove that assumption: grid-with-holes and
   corridor maps break the "every square is populated" premise of the
   NeighborWatchRB analysis, triangulations keep planarity but lose the
   lattice, expanders have no geometry at all, and the Moore lattice is
   the best case.  One experiment runs the four protocol families over
   each class so the comparison lands in one table. *)

let pick scale ~quick ~paper = match scale with Experiment.Quick -> quick | Paper -> paper

(* (label, deployment, nominal node count); nominal because grid-with-holes
   may skip a removal that would disconnect the component. *)
let classes scale =
  [
    ( "grid-holes",
      pick scale
        ~quick:(Scenario.Grid_holes { width = 12; height = 10; holes = 8 }, 112)
        ~paper:(Scenario.Grid_holes { width = 24; height = 20; holes = 40 }, 440) );
    ( "corridor",
      pick scale
        ~quick:(Scenario.Corridor { rooms = 3; room_w = 4; room_h = 5; hall_len = 3 }, 66)
        ~paper:(Scenario.Corridor { rooms = 5; room_w = 6; room_h = 8; hall_len = 4 }, 256) );
    ( "triangulated",
      pick scale
        ~quick:(Scenario.Triangulated { cols = 9; rows = 9; jitter = 0.25 }, 100)
        ~paper:(Scenario.Triangulated { cols = 20; rows = 20; jitter = 0.25 }, 441) );
    ( "expander",
      pick scale
        ~quick:(Scenario.Expander { n = 120; degree = 4 }, 120)
        ~paper:(Scenario.Expander { n = 450; degree = 4 }, 450) );
    ( "lattice",
      pick scale
        ~quick:(Scenario.Lattice { width = 10; height = 10 }, 100)
        ~paper:(Scenario.Lattice { width = 21; height = 21 }, 441) );
  ]

let protocols =
  [
    Scenario.Neighbor_watch { votes = 1 };
    Scenario.Neighbor_watch { votes = 2 };
    Scenario.Multi_path { tolerance = 1 };
    Scenario.Certified { tolerance = 1 };
  ]

let comparison =
  Experiment.job ~id:"g1" ~title:"G1: protocol comparison across explicit graph classes"
    ~columns:[ "graph"; "protocol"; "nodes"; "completed"; "correct"; "rounds" ]
    (fun scale ->
      let message = pick scale ~quick:(Bitvec.of_string "101") ~paper:(Bitvec.of_string "1011") in
      let cap = pick scale ~quick:200_000 ~paper:600_000 in
      List.concat_map
        (fun (label, (deployment, nominal)) ->
          List.map
            (fun protocol ->
              let spec =
                {
                  Scenario.default with
                  deployment;
                  message;
                  protocol;
                  cap;
                  heard_relay_limit =
                    (match protocol with
                    | Scenario.Multi_path { tolerance } ->
                      Figures.relay_limit scale ~tolerance
                    | Scenario.Neighbor_watch _ | Scenario.Epidemic | Scenario.Certified _ ->
                      None);
                }
              in
              Experiment.grid1 (Experiment.config_of_scale scale) spec (fun agg ->
                  Experiment.row
                    ~values:
                      [
                        ("graph", Json.String label);
                        ("completion_rate", Json.Float agg.Experiment.completion_rate);
                        ("correct_rate", Json.Float agg.Experiment.correct_rate);
                        ("rounds", Json.Float agg.Experiment.rounds);
                      ]
                    [
                      label;
                      Figures.protocol_name protocol;
                      Table.cell_i nominal;
                      Table.cell_pct agg.Experiment.completion_rate;
                      Table.cell_pct agg.Experiment.correct_rate;
                      Table.cell_f ~decimals:0 agg.Experiment.rounds;
                    ]))
            protocols)
        (classes scale))
