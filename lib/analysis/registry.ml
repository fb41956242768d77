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
      Bounds.job;
      Mobile.job;
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
