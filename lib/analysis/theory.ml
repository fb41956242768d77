let grid_spec ~side ~message =
  {
    Scenario.default with
    map_w = float_of_int (side - 1);
    map_h = float_of_int (side - 1);
    deployment = Scenario.Grid;
    radio = Scenario.Disk_linf;
    radius = 2.0;
    (* The analytic square sizing ⌈R/2⌉: on the unit grid every square is
       non-empty, which the R/3 simulation sizing does not guarantee. *)
    square_side = Some (Squares.analytic_side ~radius:2.0);
    message;
  }

let budget_sweep =
  Experiment.job ~id:"e8a" ~title:"E8a (Theorem 5): rounds vs adversary budget (grid)"
    ~columns:[ "budget"; "rounds"; "completed" ]
    ~fits:[ ("fit (rounds vs budget)", "budget") ]
    (fun scale ->
      let side = match scale with Experiment.Quick -> 11 | Experiment.Paper -> 17 in
      let budgets =
        match scale with
        | Experiment.Quick -> [ 0; 30; 60; 120 ]
        | Experiment.Paper -> [ 0; 50; 100; 200; 400 ]
      in
      List.map
        (fun budget ->
          let spec =
            {
              (grid_spec ~side ~message:(Bitvec.of_string "1011")) with
              Scenario.faults =
                (if budget = 0 then Scenario.No_faults
                 else Scenario.Jamming { fraction = 0.05; budget; probability = 1.0 });
            }
          in
          Experiment.grid1 (Experiment.config_of_scale scale) spec (fun agg ->
              Experiment.row
                ~points:[ ("budget", (float_of_int budget, agg.Experiment.rounds)) ]
                [
                  Table.cell_i budget;
                  Table.cell_f ~decimals:0 agg.Experiment.rounds;
                  Table.cell_pct agg.Experiment.completion_rate;
                ]))
        budgets)

let diameter_sweep =
  Experiment.job ~id:"e8b" ~title:"E8b (Theorem 5): rounds vs hop diameter (grids)"
    ~columns:[ "grid"; "hop diameter"; "rounds"; "completed" ]
    ~fits:[ ("fit (rounds vs diameter)", "diameter") ]
    (fun scale ->
      let sides =
        match scale with
        | Experiment.Quick -> [ 7; 11; 15; 19 ]
        | Experiment.Paper -> [ 9; 15; 21; 27; 33 ]
      in
      List.map
        (fun side ->
          let spec = grid_spec ~side ~message:(Bitvec.of_string "1011") in
          Experiment.grid1 (Experiment.config_of_scale scale) spec (fun agg ->
              let diameter = float_of_int (Figures.hop_diameter spec) in
              Experiment.row
                ~points:[ ("diameter", (diameter, agg.Experiment.rounds)) ]
                [
                  Printf.sprintf "%dx%d" side side;
                  Table.cell_f ~decimals:0 diameter;
                  Table.cell_f ~decimals:0 agg.Experiment.rounds;
                  Table.cell_pct agg.Experiment.completion_rate;
                ]))
        sides)

let length_sweep =
  Experiment.job ~id:"e8c" ~title:"E8c (Theorem 5): rounds vs message length (grid)"
    ~columns:[ "message bits"; "rounds"; "completed" ]
    ~fits:[ ("fit (rounds vs length)", "length") ]
    (fun scale ->
      let side = match scale with Experiment.Quick -> 11 | Experiment.Paper -> 15 in
      let lengths =
        match scale with
        | Experiment.Quick -> [ 2; 4; 8; 16 ]
        | Experiment.Paper -> [ 2; 4; 8; 16; 32; 64 ]
      in
      List.map
        (fun len ->
          let message = Bitvec.random (Rng.create (50 + len)) len in
          let spec = grid_spec ~side ~message in
          Experiment.grid1 (Experiment.config_of_scale scale) spec (fun agg ->
              Experiment.row
                ~points:[ ("length", (float_of_int len, agg.Experiment.rounds)) ]
                [
                  Table.cell_i len;
                  Table.cell_f ~decimals:0 agg.Experiment.rounds;
                  Table.cell_pct agg.Experiment.completion_rate;
                ]))
        lengths)

let jobs = [ budget_sweep; diameter_sweep; length_sweep ]
