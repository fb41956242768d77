(* S1: the scale sweep.

   Node count × target density × adversary mix over the two graph
   classes the scale campaign measures: geometric uniform deployments
   under a disk radio (the paper's setting, map sized so the expected
   degree matches the target) and synthetic expanders (no geometry at
   all, degree set directly).  The same cell construction backs the
   `scale` campaign driver (lib/run/campaign.ml), so the registry row
   and a campaign run of the same cell simulate the same spec. *)

type klass = Uniform_radio | Expander_synthetic

let klass_name = function Uniform_radio -> "uniform" | Expander_synthetic -> "expander"
let all_classes = [ Uniform_radio; Expander_synthetic ]
let known_adversaries = [ "honest"; "crash"; "lying"; "jam" ]

let faults_of_adversary = function
  | "honest" -> Some Scenario.No_faults
  | "crash" -> Some (Scenario.Crash 0.1)
  | "lying" -> Some (Scenario.Lying 0.1)
  | "jam" -> Some (Scenario.Jamming { fraction = 0.05; budget = 50; probability = 0.3 })
  | _ -> None

(* Geometric cells fix the radius and size the map so that the expected
   degree n·πR²/W² matches the requested density; synthetic cells round
   the density to the expander degree (ring + matchings needs >= 3).
   Sparse cells may be disconnected — scale sweeps deliberately measure
   partial coverage, so every cell allows unreachable nodes. *)
let cell_spec ~base ~klass ~nodes ~density =
  let base = { base with Scenario.allow_unreachable = true } in
  match klass with
  | Uniform_radio ->
    let radius = 4.0 in
    let side = sqrt (float_of_int nodes *. Float.pi *. radius *. radius /. density) in
    {
      base with
      Scenario.deployment = Scenario.Uniform nodes;
      radio = Scenario.Disk_l2;
      radius;
      map_w = side;
      map_h = side;
    }
  | Expander_synthetic ->
    let degree = max 3 (int_of_float (Float.round density)) in
    { base with Scenario.deployment = Scenario.Expander { n = nodes; degree } }

type cell = { klass : klass; nodes : int; density : float; adversary : string }

let cells ~classes ~node_counts ~densities ~adversaries =
  List.concat_map
    (fun klass ->
      List.concat_map
        (fun nodes ->
          List.concat_map
            (fun density -> List.map (fun adversary -> { klass; nodes; density; adversary }) adversaries)
            densities)
        node_counts)
    classes

let spec_of_cell ~base cell =
  match faults_of_adversary cell.adversary with
  | Some faults ->
    cell_spec ~base:{ base with Scenario.faults } ~klass:cell.klass ~nodes:cell.nodes
      ~density:cell.density
  | None -> invalid_arg (Printf.sprintf "Scale_sweep: unknown adversary %s" cell.adversary)

let pick scale ~quick ~paper = match scale with Experiment.Quick -> quick | Paper -> paper

let sweep =
  Experiment.job ~id:"s1" ~title:"S1: scale sweep — nodes × density × adversary per graph class"
    ~columns:[ "graph"; "nodes"; "target deg"; "adversary"; "completed"; "correct"; "rounds" ]
    (fun scale ->
      let node_counts = pick scale ~quick:[ 300; 1_000 ] ~paper:[ 2_000; 10_000 ] in
      let densities = pick scale ~quick:[ 12.0; 40.0 ] ~paper:[ 12.0; 40.0 ] in
      let adversaries =
        pick scale ~quick:[ "honest"; "lying" ] ~paper:[ "honest"; "lying"; "jam" ]
      in
      let base =
        {
          Scenario.default with
          message = pick scale ~quick:(Bitvec.of_string "10") ~paper:(Bitvec.of_string "1011");
        }
      in
      List.map
        (fun ({ klass; nodes; density; adversary } as cell) ->
          Experiment.grid1 (Experiment.config_of_scale scale) (spec_of_cell ~base cell) (fun agg ->
              Experiment.row
                ~values:
                  [
                    ("graph", Json.String (klass_name klass));
                    ("nodes", Json.Int nodes);
                    ("density", Json.Float density);
                    ("adversary", Json.String adversary);
                    ("completion_rate", Json.Float agg.Experiment.completion_rate);
                    ("correct_rate", Json.Float agg.Experiment.correct_rate);
                    ("rounds", Json.Float agg.Experiment.rounds);
                  ]
                [
                  klass_name klass;
                  Table.cell_i nodes;
                  Table.cell_f ~decimals:0 density;
                  adversary;
                  Table.cell_pct agg.Experiment.completion_rate;
                  Table.cell_pct agg.Experiment.correct_rate;
                  Table.cell_f ~decimals:0 agg.Experiment.rounds;
                ]))
        (cells ~classes:all_classes ~node_counts ~densities ~adversaries))
