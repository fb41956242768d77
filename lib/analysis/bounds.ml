let neighbourhood_size ~radius = (((2 * radius) + 1) * ((2 * radius) + 1)) - 1
let koo_bound ~radius = radius * ((2 * radius) + 1) / 2
let multi_path_tolerance ~radius = koo_bound ~radius - 1

let neighbor_watch_tolerance ~radius =
  let side = (radius + 1) / 2 in
  (side * side) - 1

let two_voting_tolerance ~radius = (radius * radius / 2) - 1

let job =
  Experiment.job ~id:"bounds"
    ~title:"per-neighbourhood Byzantine tolerance (analytic bounds)"
    ~columns:
      [ "R"; "neighbourhood"; "Koo impossibility"; "MultiPathRB"; "NeighborWatchRB"; "2-vote NW" ]
    (fun _scale ->
      List.map
        (fun radius ->
          let nb = neighbourhood_size ~radius in
          let cell t =
            Printf.sprintf "%d (%.0f%%)" t (100.0 *. float_of_int t /. float_of_int nb)
          in
          Experiment.const
            (Experiment.row
              ~values:
                [
                  ("koo_bound", Json.Int (koo_bound ~radius));
                  ("multi_path_tolerance", Json.Int (multi_path_tolerance ~radius));
                  ("neighbor_watch_tolerance", Json.Int (neighbor_watch_tolerance ~radius));
                  ("two_voting_tolerance", Json.Int (two_voting_tolerance ~radius));
                ]
              [
                Table.cell_i radius;
                Table.cell_i nb;
                Printf.sprintf ">= %d" (koo_bound ~radius);
                cell (multi_path_tolerance ~radius);
                cell (neighbor_watch_tolerance ~radius);
                cell (two_voting_tolerance ~radius);
              ]))
        [ 2; 3; 4; 6; 8 ])
