(* Mobile broadcast demo — the paper's future-work direction "adapting the
   protocol to mobile nodes" (Section 7), realised as epoch-based
   re-clustering: within an epoch locations are fixed (squares, schedules
   and neighbourhoods derive from them as usual); between epochs devices
   move by random waypoint and keep the bits they committed — commitment is
   a local, already-authenticated fact.

   Run with: dune exec examples/mobile_network.exe *)

let () =
  print_endline "NeighborWatchRB over a mobile network (random waypoint).";
  print_endline "Epoch-based: locations are re-read between epochs; committed bits survive.\n";
  print_string (Runner.render (Runner.run_job ~scale:Experiment.Quick Mobile.job));
  print_endline "\nSafety is untouched by movement (every delivered message is authentic);";
  print_endline "what speed costs is per-epoch liveness, and what it buys is ferrying:";
  let sparse =
    { Mobile.default with nodes = 60; map = 16.0; epoch_rounds = 3000; max_epochs = 20 }
  in
  let static = Mobile.run { sparse with model = { sparse.model with Mobility.speed = 0.0 } } in
  let moving = Mobile.run { sparse with model = { sparse.model with Mobility.speed = 0.01 } } in
  Printf.printf
    "sparse network (60 nodes on 16x16): static completion %.0f%%, mobile completion %.0f%%\n"
    (100.0 *. static.Mobile.completion_rate)
    (100.0 *. moving.Mobile.completion_rate)
