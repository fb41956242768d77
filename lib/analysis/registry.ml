let bounds =
  Experiment.job ~id:"bounds"
    ~title:"per-neighbourhood Byzantine tolerance (analytic bounds)"
    ~columns:
      [ "R"; "neighbourhood"; "Koo impossibility"; "MultiPathRB"; "NeighborWatchRB"; "2-vote NW" ]
    (fun _scale ->
      List.map
        (fun radius ->
          let nb = Bounds.neighbourhood_size ~radius in
          let cell t =
            Printf.sprintf "%d (%.0f%%)" t (100.0 *. float_of_int t /. float_of_int nb)
          in
          Experiment.const
            (Experiment.row
              ~values:
                [
                  ("koo_bound", Json.Int (Bounds.koo_bound ~radius));
                  ("multi_path_tolerance", Json.Int (Bounds.multi_path_tolerance ~radius));
                  ("neighbor_watch_tolerance", Json.Int (Bounds.neighbor_watch_tolerance ~radius));
                  ("two_voting_tolerance", Json.Int (Bounds.two_voting_tolerance ~radius));
                ]
              [
                Table.cell_i radius;
                Table.cell_i nb;
                Printf.sprintf ">= %d" (Bounds.koo_bound ~radius);
                cell (Bounds.multi_path_tolerance ~radius);
                cell (Bounds.neighbor_watch_tolerance ~radius);
                cell (Bounds.two_voting_tolerance ~radius);
              ]))
        [ 2; 3; 4; 6; 8 ])

let mobile =
  Experiment.job ~id:"mobile"
    ~title:"mobile NeighborWatchRB (random waypoint, epoch-based)"
    ~columns:[ "speed"; "epochs"; "rounds"; "completed"; "correct"; "mean travel" ]
    (fun scale ->
      let config = Mobile.scaled_config scale in
      List.map
        (fun speed ->
          Experiment.single
            (fun () ->
              let result =
                Mobile.run { config with model = { config.Mobile.model with Mobility.speed } }
              in
              ( result,
                {
                  Experiment.rounds = result.Mobile.rounds_total;
                  active_rounds = result.Mobile.active_rounds;
                } ))
            (fun result ->
              Experiment.row
                ~values:
                  [
                    ("speed", Json.Float speed);
                    ("epochs", Json.Int result.Mobile.epochs_used);
                    ("rounds", Json.Int result.Mobile.rounds_total);
                    ("completion_rate", Json.Float result.Mobile.completion_rate);
                    ("correct_rate", Json.Float result.Mobile.correct_rate);
                  ]
                [
                  Printf.sprintf "%g/round" speed;
                  Table.cell_i result.Mobile.epochs_used;
                  Table.cell_i result.Mobile.rounds_total;
                  Table.cell_pct result.Mobile.completion_rate;
                  Table.cell_pct result.Mobile.correct_rate;
                  Table.cell_f ~decimals:2 result.Mobile.mean_displacement;
                ]))
        [ 0.0; 0.003; 0.01 ])

(* The canonical experiment order: the paper's evaluation (E1–E7), the
   Theorem 5 sweeps (E8a–E8c), the DESIGN.md ablations (A1–A5), then the
   analytic bounds table, the mobile extension, the graph-class
   comparison (G1), and the scale sweep (S1). *)
let all =
  [
    Figures.fig5_crash;
    Figures.jamming;
    Figures.fig6_lying;
    Figures.fig7_density;
    Figures.clustered;
    Figures.map_size;
    Figures.epidemic_comparison;
  ]
  @ Theory.jobs
  @ [
      Figures.ablation_pipeline;
      Figures.ablation_square;
      Figures.ablation_jamprob;
      Figures.ablation_dualmode;
      Figures.ablation_cpa;
      bounds;
      mobile;
      Graph_family.comparison;
      Scale_sweep.sweep;
    ]

let ids = List.map (fun job -> job.Experiment.id) all

let find id =
  let id = String.lowercase_ascii id in
  List.find_opt (fun job -> job.Experiment.id = id) all

let () =
  (* Ids are the registry's primary key; catch duplicates at startup. *)
  if List.length (List.sort_uniq String.compare ids) <> List.length ids then
    invalid_arg "Registry: duplicate experiment ids"
