(* Tests for the mobility model and the epoch-based mobile broadcast. *)

(* --- Mobility.waypoint model ------------------------------------------ *)

let deployment () = Deployment.uniform (Rng.create 1) ~n:50 ~width:10.0 ~height:10.0

let test_zero_speed_is_static () =
  let d = deployment () in
  let m = Mobility.create (Rng.create 2) { Mobility.speed = 0.0; pause = 0 } d in
  Mobility.advance m ~rounds:10_000;
  Alcotest.(check (float 1e-9)) "no displacement" 0.0 (Mobility.displacement m d)

let test_moves_within_bounds () =
  let d = deployment () in
  let m = Mobility.create (Rng.create 3) { Mobility.speed = 0.01; pause = 10 } d in
  for _ = 1 to 20 do
    Mobility.advance m ~rounds:500;
    Array.iter
      (fun (node : Node.t) ->
        Alcotest.(check bool) "inside the map" true
          (node.Node.pos.Point.x >= -1e-9 && node.Node.pos.Point.x <= 10.0 +. 1e-9
          && node.Node.pos.Point.y >= -1e-9 && node.Node.pos.Point.y <= 10.0 +. 1e-9))
      (Mobility.deployment m).Deployment.nodes
  done

let test_displacement_grows () =
  let d = deployment () in
  let m = Mobility.create (Rng.create 4) { Mobility.speed = 0.01; pause = 0 } d in
  Mobility.advance m ~rounds:100;
  let early = Mobility.displacement m d in
  Mobility.advance m ~rounds:5_000;
  let late = Mobility.displacement m d in
  Alcotest.(check bool) "moves" true (early > 0.0);
  Alcotest.(check bool) "keeps moving" true (late > early)

let test_travel_bounded_by_speed () =
  let d = deployment () in
  let m = Mobility.create (Rng.create 5) { Mobility.speed = 0.002; pause = 0 } d in
  Mobility.advance m ~rounds:1000;
  let moved = Mobility.deployment m in
  Array.iteri
    (fun i (node : Node.t) ->
      let travelled = Point.dist_l2 node.Node.pos d.Deployment.nodes.(i).Node.pos in
      (* Net displacement cannot exceed total travel distance. *)
      Alcotest.(check bool) "speed x rounds bounds displacement" true (travelled <= 2.0 +. 1e-6))
    moved.Deployment.nodes

let test_ids_preserved () =
  let d = deployment () in
  let m = Mobility.create (Rng.create 6) { Mobility.speed = 0.01; pause = 0 } d in
  Mobility.advance m ~rounds:100;
  Array.iteri
    (fun i (node : Node.t) -> Alcotest.(check int) "dense ids" i node.Node.id)
    (Mobility.deployment m).Deployment.nodes

(* --- Mobile epoch runner ---------------------------------------------- *)

let base =
  {
    Mobile.default with
    nodes = 120;
    map = 10.0;
    epoch_rounds = 2500;
    max_epochs = 8;
    seed = 9;
  }

let test_static_epochs_complete () =
  let result = Mobile.run { base with model = { base.model with Mobility.speed = 0.0 } } in
  Alcotest.(check (float 1e-9)) "all complete" 1.0 result.Mobile.completion_rate;
  Alcotest.(check (float 1e-9)) "all correct" 1.0 result.Mobile.correct_rate

let test_mobile_epochs_complete_and_stay_authentic () =
  (* Requested epochs are shorter than the (L+2)-cycle minimum; the runner
     clamps them, and the broadcast survives the re-clusterings. *)
  let result =
    Mobile.run
      { base with epoch_rounds = 800; model = { base.model with Mobility.speed = 0.005 } }
  in
  Alcotest.(check bool) "completes" true (result.Mobile.completion_rate >= 0.99);
  Alcotest.(check (float 1e-9)) "every delivery authentic"
    result.Mobile.completion_rate result.Mobile.correct_rate

let test_mobility_ferries_across_partitions () =
  (* A deployment too sparse to percolate statically: movement carries
     committed bits across the gaps. *)
  let sparse =
    { base with nodes = 50; map = 16.0; epoch_rounds = 3000; max_epochs = 20; seed = 3 }
  in
  let static = Mobile.run { sparse with model = { sparse.model with Mobility.speed = 0.0 } } in
  let moving = Mobile.run { sparse with model = { sparse.model with Mobility.speed = 0.01 } } in
  Alcotest.(check bool) "static run is partitioned" true
    (static.Mobile.completion_rate < 0.9);
  Alcotest.(check bool) "mobility improves completion" true
    (moving.Mobile.completion_rate > static.Mobile.completion_rate +. 0.1)

let test_mobile_with_liars_stays_safe () =
  let result =
    Mobile.run
      { base with liar_fraction = 0.1; model = { base.model with Mobility.speed = 0.005 } }
  in
  (* Lying can reduce correctness but mobile honest nodes never deliver a
     message that is neither the true nor... the fake: deliveries are
     whole committed prefixes, so anything delivered and wrong equals the
     fake or a stalled mix; here we assert the aggregate stays sane. *)
  Alcotest.(check bool) "rates well-formed" true
    (result.Mobile.correct_rate <= result.Mobile.completion_rate +. 1e-9
    && result.Mobile.correct_rate >= 0.0)

(* The registered table at quick scale: one row per speed. *)
let test_table_renders () =
  let outcome = Runner.run_job ~scale:Experiment.Quick Mobile.job in
  Alcotest.(check int) "one row per speed" 3 (List.length outcome.Runner.rows);
  Alcotest.(check bool) "renders" true (String.length (Table.render outcome.Runner.table) > 0)

let () =
  Alcotest.run "mobile"
    [
      ( "waypoint",
        [
          Alcotest.test_case "zero speed static" `Quick test_zero_speed_is_static;
          Alcotest.test_case "bounds respected" `Quick test_moves_within_bounds;
          Alcotest.test_case "displacement grows" `Quick test_displacement_grows;
          Alcotest.test_case "travel bounded by speed" `Quick test_travel_bounded_by_speed;
          Alcotest.test_case "ids preserved" `Quick test_ids_preserved;
        ] );
      ( "epochs",
        [
          Alcotest.test_case "static completes" `Quick test_static_epochs_complete;
          Alcotest.test_case "mobile completes, authentic" `Quick
            test_mobile_epochs_complete_and_stay_authentic;
          Alcotest.test_case "ferrying across partitions" `Quick
            test_mobility_ferries_across_partitions;
          Alcotest.test_case "liars stay contained" `Quick test_mobile_with_liars_stays_safe;
          Alcotest.test_case "table renders" `Quick test_table_renders;
        ] );
    ]
