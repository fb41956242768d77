type scale = Experiment.scale = Quick | Paper

let pick scale ~quick ~paper = match scale with Quick -> quick | Paper -> paper

let protocol_name = function
  | Scenario.Neighbor_watch { votes = 1 } -> "NeighborWatchRB"
  | Scenario.Neighbor_watch { votes } -> Printf.sprintf "%d-vote NW" votes
  | Scenario.Multi_path { tolerance } -> Printf.sprintf "MultiPathRB t=%d" tolerance
  | Scenario.Epidemic -> "Epidemic"
  | Scenario.Certified { tolerance } -> Printf.sprintf "CPA t=%d" tolerance

(* MultiPathRB relay cap used at Quick scale: just above the quorum size,
   so the voting rule still has redundancy but the HEARD flood is bounded
   (DESIGN.md).  Paper scale relays everything, as the protocol says. *)
let relay_limit scale ~tolerance =
  match scale with Quick -> Some (tolerance + 3) | Paper -> None

let tolerance_of = function Scenario.Multi_path { tolerance } -> tolerance | _ -> 0

(* ------------------------------------------------------------------ *)
(* E1 / Figure 5: crash resilience                                     *)
(* ------------------------------------------------------------------ *)

let fig5_crash =
  Experiment.job ~id:"e1" ~title:"E1 (Figure 5): completion under crash failures"
    ~columns:[ "protocol"; "density"; "nodes"; "completed"; "rounds" ]
    (fun scale ->
      let map = pick scale ~quick:10.0 ~paper:24.0 in
      let radius = pick scale ~quick:2.5 ~paper:4.0 in
      let densities =
        pick scale ~quick:[ 0.4; 0.6; 0.8; 1.2; 1.6 ]
          ~paper:[ 0.25; 0.5; 0.75; 1.0; 1.5; 2.0 ]
      in
      let message = pick scale ~quick:(Bitvec.of_string "101") ~paper:(Bitvec.of_string "1011") in
      let protocols density =
        let nw = [ Scenario.Neighbor_watch { votes = 1 }; Scenario.Neighbor_watch { votes = 2 } ] in
        let mp = [ Scenario.Multi_path { tolerance = 3 }; Scenario.Multi_path { tolerance = 5 } ] in
        match scale with
        | Paper -> nw @ mp
        | Quick -> if density >= 0.8 then nw @ mp else nw
        (* Quick scale skips MultiPathRB where it cannot complete anyway; it
           would only burn its round cap. *)
      in
      List.concat_map
        (fun density ->
          let n = int_of_float (density *. map *. map) in
          List.map
            (fun protocol ->
              let spec =
                {
                  Scenario.default with
                  allow_unreachable = true;
                  map_w = map;
                  map_h = map;
                  deployment = Scenario.Uniform n;
                  radius;
                  message;
                  protocol;
                  heard_relay_limit = relay_limit scale ~tolerance:(tolerance_of protocol);
                }
              in
              Experiment.grid1 (Experiment.config_of_scale scale) spec (fun agg ->
                  Experiment.row
                    [
                      protocol_name protocol;
                      Table.cell_f ~decimals:2 density;
                      Table.cell_i n;
                      Table.cell_pct agg.Experiment.completion_rate;
                      Table.cell_f ~decimals:0 agg.Experiment.rounds;
                    ]))
            (protocols density))
        densities)

(* ------------------------------------------------------------------ *)
(* E2: jamming                                                         *)
(* ------------------------------------------------------------------ *)

let jamming =
  Experiment.job ~id:"e2" ~title:"E2 (sec 6.1): completion time under veto-round jamming"
    ~columns:[ "budget/jammer"; "rounds"; "broadcasts"; "completed" ]
    ~fits:[ ("linearity (rounds vs budget)", "budget") ]
    (fun scale ->
      let map = pick scale ~quick:12.0 ~paper:24.0 in
      let n = pick scale ~quick:220 ~paper:800 in
      let budgets =
        pick scale ~quick:[ 0; 20; 40; 80; 160 ] ~paper:[ 0; 50; 100; 200; 400; 800 ]
      in
      List.map
        (fun budget ->
          let spec =
            {
              Scenario.default with
              allow_unreachable = true;
              map_w = map;
              map_h = map;
              deployment = Scenario.Uniform n;
              radius = 4.0;
              faults = Scenario.Jamming { fraction = 0.1; budget; probability = 0.2 };
            }
          in
          Experiment.grid1 (Experiment.config_of_scale scale) spec (fun agg ->
              Experiment.row
                ~points:[ ("budget", (float_of_int budget, agg.Experiment.rounds)) ]
                [
                  Table.cell_i budget;
                  Table.cell_f ~decimals:0 agg.Experiment.rounds;
                  Table.cell_f ~decimals:0 agg.Experiment.broadcasts;
                  Table.cell_pct agg.Experiment.completion_rate;
                ]))
        budgets)

(* ------------------------------------------------------------------ *)
(* E3 / Figure 6: lying devices                                        *)
(* ------------------------------------------------------------------ *)

let fig6_lying =
  Experiment.job ~id:"e3" ~title:"E3 (Figure 6): correctness under lying devices"
    ~columns:[ "protocol"; "byzantine"; "delivered"; "correct of delivered"; "correct overall" ]
    (fun scale ->
      (* The map must be genuinely multi-hop relative to R (the paper uses a
         20×20 map with R = 4), otherwise most devices authenticate directly
         from the source and lying has no purchase at all. *)
      let map = pick scale ~quick:10.0 ~paper:20.0 in
      let radius = pick scale ~quick:2.5 ~paper:4.0 in
      let n = pick scale ~quick:200 ~paper:600 in
      let message = pick scale ~quick:(Bitvec.of_string "101") ~paper:(Bitvec.of_string "1011") in
      let fractions =
        pick scale ~quick:[ 0.0; 0.025; 0.05; 0.10; 0.15; 0.20 ]
          ~paper:[ 0.0; 0.025; 0.05; 0.075; 0.10; 0.125; 0.15 ]
      in
      let protocols =
        pick scale
          ~quick:
            [
              Scenario.Neighbor_watch { votes = 1 };
              Scenario.Neighbor_watch { votes = 2 };
              Scenario.Multi_path { tolerance = 1 };
              Scenario.Multi_path { tolerance = 3 };
            ]
          ~paper:
            [
              Scenario.Neighbor_watch { votes = 1 };
              Scenario.Neighbor_watch { votes = 2 };
              Scenario.Multi_path { tolerance = 3 };
              Scenario.Multi_path { tolerance = 5 };
            ]
      in
      let fractions_for protocol =
        match (scale, protocol) with
        | Quick, Scenario.Multi_path _ -> [ 0.0; 0.05; 0.10 ]
        | (Quick | Paper), _ -> fractions
      in
      List.concat_map
        (fun protocol ->
          List.map
            (fun fraction ->
              let spec =
                {
                  Scenario.default with
                  allow_unreachable = true;
                  map_w = map;
                  map_h = map;
                  deployment = Scenario.Uniform n;
                  radius;
                  message;
                  protocol;
                  faults = Scenario.Lying fraction;
                  heard_relay_limit = relay_limit scale ~tolerance:(tolerance_of protocol);
                }
              in
              Experiment.grid1 (Experiment.config_of_scale scale) spec (fun agg ->
                  Experiment.row
                    [
                      protocol_name protocol;
                      Table.cell_pct fraction;
                      Table.cell_pct agg.Experiment.completion_rate;
                      Table.cell_pct agg.Experiment.correct_of_delivered;
                      Table.cell_pct agg.Experiment.correct_rate;
                    ]))
            (fractions_for protocol))
        protocols)

(* ------------------------------------------------------------------ *)
(* E4 / Figure 7: tolerated Byzantine fraction vs density              *)
(* ------------------------------------------------------------------ *)

let fig7_density =
  Experiment.job ~id:"e4"
    ~title:"E4 (Figure 7): max Byzantine fraction with >=90% correct delivery"
    ~columns:[ "protocol"; "density"; "max byzantine" ]
    (fun scale ->
      (* The map must stay genuinely multi-hop (map/R = 5, as in the paper)
         and quick-scale densities must start above the R/3-square percolation
         point (≈1.2 nodes per square, i.e. density ≈2.5 at R = 2); below
         that, incompletion — not lying — dominates the 90% criterion. *)
      let map = pick scale ~quick:12.0 ~paper:20.0 in
      let radius = pick scale ~quick:2.5 ~paper:4.0 in
      let densities = pick scale ~quick:[ 2.0; 4.0; 8.0 ] ~paper:[ 0.75; 1.5; 3.0; 5.0; 9.0 ] in
      let probe_step = 0.05 in
      let threshold = 0.9 in
      let protocols =
        match scale with
        | Quick -> [ Scenario.Neighbor_watch { votes = 1 }; Scenario.Neighbor_watch { votes = 2 } ]
        | Paper ->
          [
            Scenario.Neighbor_watch { votes = 1 };
            Scenario.Neighbor_watch { votes = 2 };
            Scenario.Multi_path { tolerance = 3 };
          ]
      in
      let config =
        (* Each probe is a full experiment; two repetitions keep the scan
           tractable at quick scale. *)
        match scale with
        | Quick -> { Experiment.quick with repetitions = 2 }
        | Paper -> Experiment.paper
      in
      (* One trial per row: the sequential probe scan, reporting the
         engine work of every probe it ran. *)
      let max_tolerated protocol density () =
        let n = int_of_float (density *. map *. map) in
        (* MultiPathRB at paper scale stops at density 5, as in the paper. *)
        if (match protocol with Scenario.Multi_path _ -> density > 5.0 | _ -> false) then
          (None, Experiment.no_work)
        else begin
          let work = ref Experiment.no_work in
          let ok fraction =
            let spec =
              {
                Scenario.default with
                allow_unreachable = true;
                map_w = map;
                map_h = map;
                deployment = Scenario.Uniform n;
                radius;
                message = Bitvec.of_string "101";
                protocol;
                faults = (if fraction = 0.0 then Scenario.No_faults else Scenario.Lying fraction);
                heard_relay_limit = relay_limit scale ~tolerance:(tolerance_of protocol);
              }
            in
            let summaries, works =
              List.split (List.map (fun trial -> trial ()) (Experiment.trials config spec))
            in
            work := List.fold_left Experiment.add_work !work works;
            (Experiment.aggregate summaries).Experiment.correct_rate >= threshold
          in
          let rec scan best fraction =
            if fraction > 0.5 then best
            else if ok fraction then scan fraction (fraction +. probe_step)
            else best
          in
          let best = scan 0.0 0.0 in
          (Some best, !work)
        end
      in
      List.concat_map
        (fun protocol ->
          List.map
            (fun density ->
              Experiment.single (max_tolerated protocol density) (fun tolerated ->
                  let cell, value =
                    match tolerated with
                    | None -> ("-", Json.Null)
                    | Some fraction -> (Table.cell_pct fraction, Json.Float fraction)
                  in
                  Experiment.row
                    ~values:[ ("max_byzantine_fraction", value) ]
                    [ protocol_name protocol; Table.cell_f ~decimals:2 density; cell ]))
            densities)
        protocols)

(* ------------------------------------------------------------------ *)
(* E5: clustered deployments                                           *)
(* ------------------------------------------------------------------ *)

let clustered =
  Experiment.job ~id:"e5"
    ~title:"E5 (sec 6.2): uniform vs clustered deployment (NeighborWatchRB)"
    ~columns:[ "deployment"; "faults"; "completed"; "correct of delivered"; "rounds" ]
    (fun scale ->
      (* Clustering helps correctness only when clusters are tight relative to
         the radio range (each watch square then holds many honest witnesses);
         with loose clusters the sparse inter-cluster bridges become the attack
         surface.  The paper's setup (R = 4, dense clusters) is the former
         regime. *)
      let map = pick scale ~quick:15.0 ~paper:30.0 in
      let radius = 4.0 in
      let stddev = pick scale ~quick:1.2 ~paper:1.5 in
      let n = pick scale ~quick:400 ~paper:1200 in
      let clusters = pick scale ~quick:8 ~paper:20 in
      let deployments =
        [
          ("uniform", Scenario.Uniform n);
          ("clustered", Scenario.Clustered { n; clusters; stddev });
        ]
      in
      let fault_models = [ ("none", Scenario.No_faults); ("lying 10%", Scenario.Lying 0.10) ] in
      List.concat_map
        (fun (dep_name, deployment) ->
          List.map
            (fun (fault_name, faults) ->
              let spec =
                {
                  Scenario.default with
                  allow_unreachable = true;
                  map_w = map;
                  map_h = map;
                  deployment;
                  radius;
                  faults;
                }
              in
              Experiment.grid1 (Experiment.config_of_scale scale) spec (fun agg ->
                  Experiment.row
                    [
                      dep_name;
                      fault_name;
                      Table.cell_pct agg.Experiment.completion_rate;
                      Table.cell_pct agg.Experiment.correct_of_delivered;
                      Table.cell_f ~decimals:0 agg.Experiment.rounds;
                    ]))
            fault_models)
        deployments)

(* ------------------------------------------------------------------ *)
(* E6: varying map size                                                *)
(* ------------------------------------------------------------------ *)

(* From the spec's topology alone, with [Scenario.run]'s source: no
   broadcast is needed to read it. *)
let hop_diameter spec =
  let topology = Scenario.topology spec in
  Graph.hop_diameter_from (Topology.graph topology)
    (Deployment.center_node (Topology.deployment topology))

let map_size =
  Experiment.job ~id:"e6" ~title:"E6 (sec 6.2): scaling with map size (NeighborWatchRB)"
    ~columns:[ "map"; "nodes"; "hop diameter"; "rounds"; "broadcasts"; "completed" ]
    ~fits:
      [ ("rounds vs hop diameter", "rounds"); ("broadcasts vs hop diameter", "broadcasts") ]
    (fun scale ->
      let maps =
        pick scale ~quick:[ 10.0; 14.0; 18.0; 22.0 ] ~paper:[ 20.0; 30.0; 40.0; 50.0; 60.0 ]
      in
      let density = 1.25 in
      List.map
        (fun map ->
          let n = int_of_float (density *. map *. map) in
          let spec =
            {
              Scenario.default with
              allow_unreachable = true;
              map_w = map;
              map_h = map;
              deployment = Scenario.Uniform n;
              radius = 3.0;
              message = Bitvec.of_string "10110";
            }
          in
          Experiment.grid1 (Experiment.config_of_scale scale) spec (fun agg ->
              let diameter = float_of_int (hop_diameter spec) in
              Experiment.row
                ~points:
                  [
                    ("rounds", (diameter, agg.Experiment.rounds));
                    ("broadcasts", (diameter, agg.Experiment.broadcasts));
                  ]
                [
                  Printf.sprintf "%.0fx%.0f" map map;
                  Table.cell_i n;
                  Table.cell_f ~decimals:0 diameter;
                  Table.cell_f ~decimals:0 agg.Experiment.rounds;
                  Table.cell_f ~decimals:0 agg.Experiment.broadcasts;
                  Table.cell_pct agg.Experiment.completion_rate;
                ]))
        maps)

(* ------------------------------------------------------------------ *)
(* E7: comparison with the epidemic baseline                           *)
(* ------------------------------------------------------------------ *)

let epidemic_comparison =
  Experiment.job ~id:"e7" ~title:"E7 (sec 6.2): NeighborWatchRB vs epidemic flooding"
    ~columns:[ "map"; "nodes"; "NW rounds"; "epidemic rounds"; "slowdown" ]
    ~notes:(fun ~fits:_ ~series ->
      let slowdowns = List.map snd (series "slowdown") in
      [ Printf.sprintf "mean slowdown: %.1fx (paper: ~7.7x)" (Stats.mean slowdowns) ])
    (fun scale ->
      let maps = pick scale ~quick:[ 12.0; 16.0; 20.0 ] ~paper:[ 30.0; 40.0; 50.0 ] in
      let density = 1.25 in
      List.map
        (fun map ->
          let n = int_of_float (density *. map *. map) in
          let base =
            {
              Scenario.default with
              allow_unreachable = true;
              map_w = map;
              map_h = map;
              deployment = Scenario.Uniform n;
              radius = 3.0;
              message = Bitvec.of_string "10110";
            }
          in
          Experiment.grid2 (Experiment.config_of_scale scale) base
            { base with Scenario.protocol = Scenario.Epidemic }
            (fun nw epi ->
              let slowdown =
                if epi.Experiment.rounds > 0.0 then nw.Experiment.rounds /. epi.Experiment.rounds
                else 0.0
              in
              Experiment.row
                ~points:[ ("slowdown", (map, slowdown)) ]
                [
                  Printf.sprintf "%.0fx%.0f" map map;
                  Table.cell_i n;
                  Table.cell_f ~decimals:0 nw.Experiment.rounds;
                  Table.cell_f ~decimals:0 epi.Experiment.rounds;
                  Table.cell_f ~decimals:1 slowdown ^ "x";
                ]))
        maps)

(* ------------------------------------------------------------------ *)
(* A1: pipelining ablation                                             *)
(* ------------------------------------------------------------------ *)

let ablation_pipeline =
  Experiment.job ~id:"a1" ~title:"A1: pipelined vs store-and-forward NeighborWatchRB"
    ~columns:[ "message bits"; "pipelined rounds"; "store-and-forward rounds"; "ratio" ]
    (fun scale ->
      let map = pick scale ~quick:14.0 ~paper:30.0 in
      let n = int_of_float (1.25 *. map *. map) in
      let lengths = pick scale ~quick:[ 2; 4; 8 ] ~paper:[ 2; 4; 8; 16; 32 ] in
      List.map
        (fun len ->
          let message = Bitvec.random (Rng.create (100 + len)) len in
          let base =
            {
              Scenario.default with
              allow_unreachable = true;
              map_w = map;
              map_h = map;
              deployment = Scenario.Uniform n;
              radius = 3.0;
              message;
            }
          in
          Experiment.grid2 (Experiment.config_of_scale scale) base
            { base with Scenario.pipelined = false }
            (fun piped naive ->
              let ratio =
                if piped.Experiment.rounds > 0.0 then
                  naive.Experiment.rounds /. piped.Experiment.rounds
                else 0.0
              in
              Experiment.row
                [
                  Table.cell_i len;
                  Table.cell_f ~decimals:0 piped.Experiment.rounds;
                  Table.cell_f ~decimals:0 naive.Experiment.rounds;
                  Table.cell_f ~decimals:2 ratio ^ "x";
                ]))
        lengths)

(* ------------------------------------------------------------------ *)
(* A2: square-size ablation                                            *)
(* ------------------------------------------------------------------ *)

let ablation_square =
  Experiment.job ~id:"a2" ~title:"A2: NeighborWatchRB square side (Euclidean radio)"
    ~columns:[ "square side"; "completed"; "correct of delivered"; "rounds" ]
    (fun scale ->
      let map = pick scale ~quick:12.0 ~paper:24.0 in
      let n = int_of_float (1.5 *. map *. map) in
      let radius = 4.0 in
      let sides =
        [
          ("R/3 (simulation)", Squares.simulation_side ~radius);
          ("R/2 (analytic)", Squares.analytic_side ~radius);
          ("R", radius);
          ("2R (broken)", 2.0 *. radius);
        ]
      in
      List.map
        (fun (name, side) ->
          let spec =
            {
              Scenario.default with
              allow_unreachable = true;
              map_w = map;
              map_h = map;
              deployment = Scenario.Uniform n;
              radius;
              square_side = Some side;
            }
          in
          Experiment.grid1 (Experiment.config_of_scale scale) spec (fun agg ->
              Experiment.row
                [
                  name;
                  Table.cell_pct agg.Experiment.completion_rate;
                  Table.cell_pct agg.Experiment.correct_of_delivered;
                  Table.cell_f ~decimals:0 agg.Experiment.rounds;
                ]))
        sides)

(* ------------------------------------------------------------------ *)
(* A3: jamming-probability ablation                                    *)
(* ------------------------------------------------------------------ *)

let ablation_jamprob =
  Experiment.job ~id:"a3" ~title:"A3: jammer veto-round probability (fixed budget)"
    ~columns:[ "probability"; "rounds"; "completed" ]
    (fun scale ->
      let map = pick scale ~quick:12.0 ~paper:24.0 in
      let n = pick scale ~quick:220 ~paper:800 in
      let budget = pick scale ~quick:60 ~paper:200 in
      List.map
        (fun probability ->
          let spec =
            {
              Scenario.default with
              allow_unreachable = true;
              map_w = map;
              map_h = map;
              deployment = Scenario.Uniform n;
              radius = 4.0;
              faults = Scenario.Jamming { fraction = 0.1; budget; probability };
            }
          in
          Experiment.grid1 (Experiment.config_of_scale scale) spec (fun agg ->
              Experiment.row
                [
                  Table.cell_f ~decimals:2 probability;
                  Table.cell_f ~decimals:0 agg.Experiment.rounds;
                  Table.cell_pct agg.Experiment.completion_rate;
                ]))
        [ 0.05; 0.1; 0.2; 0.5; 1.0 ])

(* ------------------------------------------------------------------ *)
(* A4: dual-mode digest sweep                                          *)
(* ------------------------------------------------------------------ *)

let ablation_dualmode =
  Experiment.job ~id:"a4" ~title:"A4: dual-mode digest size (32-bit payload, 10% liars)"
    ~columns:[ "digest bits"; "accepted correct"; "fakes rejected"; "total rounds"; "slowdown" ]
    (fun scale ->
      let map = pick scale ~quick:12.0 ~paper:24.0 in
      let n = int_of_float (1.5 *. map *. map) in
      let full_len = 32 in
      let message = Bitvec.random (Rng.create 7) full_len in
      let digest_lens = pick scale ~quick:[ 2; 4; 8 ] ~paper:[ 2; 4; 8; 16 ] in
      List.map
        (fun digest_len ->
          let base =
            {
              Scenario.default with
              allow_unreachable = true;
              map_w = map;
              map_h = map;
              deployment = Scenario.Uniform n;
              radius = 4.0;
              message;
              faults = Scenario.Lying 0.10;
            }
          in
          Experiment.single
            (fun () ->
              let result = Dual_mode.run { Dual_mode.base; digest_len } in
              let work run = Experiment.engine_work run.Scenario.engine in
              (result, Experiment.add_work (work result.epidemic) (work result.digest)))
            (fun result ->
              Experiment.row
                ~values:
                  [
                    ("accepted_correct_rate", Json.Float result.Dual_mode.accepted_correct_rate);
                    ("rejected_fake_rate", Json.Float result.Dual_mode.rejected_fake_rate);
                    ("total_rounds", Json.Int result.Dual_mode.total_rounds);
                    ("slowdown", Json.Float result.Dual_mode.slowdown);
                  ]
                [
                  Table.cell_i digest_len;
                  Table.cell_pct result.Dual_mode.accepted_correct_rate;
                  Table.cell_pct result.Dual_mode.rejected_fake_rate;
                  Table.cell_i result.Dual_mode.total_rounds;
                  Table.cell_f ~decimals:1 result.Dual_mode.slowdown ^ "x";
                ]))
        digest_lens)

(* ------------------------------------------------------------------ *)
(* A5: the price of a Byzantine radio — CPA vs MultiPathRB             *)
(* ------------------------------------------------------------------ *)

let ablation_cpa =
  Experiment.job ~id:"a5"
    ~title:"A5: CPA (ideal authenticated channel) vs MultiPathRB (radio)"
    ~columns:[ "seed"; "CPA rounds"; "CPA reached"; "MP rounds"; "MP reached"; "radio cost factor" ]
    (fun scale ->
      (* Identical topology and tolerance; CPA runs on the idealised
         authenticated reliable channel of Koo/Bhandari–Vaidya, MultiPathRB on
         the Byzantine radio.  The gap is what jamming/spoofing resistance
         costs. *)
      let map = pick scale ~quick:8.0 ~paper:16.0 in
      let n = pick scale ~quick:100 ~paper:400 in
      let tolerance = pick scale ~quick:1 ~paper:3 in
      let radius = 2.0 in
      let message = Bitvec.of_string "101" in
      List.map
        (fun seed ->
          let spec =
            {
              Scenario.default with
              allow_unreachable = true;
              map_w = map;
              map_h = map;
              deployment = Scenario.Uniform n;
              radius;
              message;
              protocol = Scenario.Multi_path { tolerance };
              heard_relay_limit = relay_limit scale ~tolerance;
              seed;
            }
          in
          Experiment.single
            (fun () ->
              let mp_result = Scenario.run spec in
              let topology = mp_result.Scenario.topology in
              let roles =
                Array.init (Topology.size topology) (fun i ->
                    if i = mp_result.Scenario.source then Certified_propagation.Reference.Source
                    else Certified_propagation.Reference.Honest)
              in
              let cpa =
                Certified_propagation.Reference.run
                  { Certified_propagation.Reference.radius; tolerance }
                  ~topology ~source:mp_result.Scenario.source ~message ~roles ~max_rounds:10_000
              in
              let mp = Scenario.summarize mp_result in
              ((mp, cpa), Experiment.engine_work mp_result.Scenario.engine))
            (fun (mp, cpa) ->
              let cpa_reached =
                Array.fold_left
                  (fun acc c -> if c = Some message then acc + 1 else acc)
                  0 cpa.Certified_propagation.Reference.committed
              in
              let factor =
                if cpa.Certified_propagation.Reference.rounds > 0 then
                  float_of_int mp.Scenario.rounds /. float_of_int cpa.Certified_propagation.Reference.rounds
                else 0.0
              in
              Experiment.row
                ~values:
                  [
                    ("cpa_rounds", Json.Int cpa.Certified_propagation.Reference.rounds);
                    ("mp_rounds", Json.Int mp.Scenario.rounds);
                    ("radio_cost_factor", Json.Float factor);
                  ]
                [
                  Table.cell_i seed;
                  Table.cell_i cpa.Certified_propagation.Reference.rounds;
                  Printf.sprintf "%d/%d" cpa_reached n;
                  Table.cell_i mp.Scenario.rounds;
                  Table.cell_pct mp.Scenario.completion_rate;
                  Table.cell_f ~decimals:0 factor ^ "x";
                ]))
        [ 1; 2; 3 ])
