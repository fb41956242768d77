(* Tests for the adversary library: budgets and jamming machines, plus the
   theoretical tolerance bounds. *)

let test_budget_limits () =
  let b = Budget.create 3 in
  Alcotest.(check bool) "spend 1" true (Budget.try_spend b);
  Alcotest.(check bool) "spend 2" true (Budget.try_spend b);
  Alcotest.(check bool) "spend 3" true (Budget.try_spend b);
  Alcotest.(check bool) "exhausted" false (Budget.try_spend b);
  Alcotest.(check int) "spent" 3 (Budget.spent b);
  Alcotest.(check (option int)) "remaining" (Some 0) (Budget.remaining b)

let test_budget_unlimited () =
  let b = Budget.unlimited () in
  for _ = 1 to 100 do
    Alcotest.(check bool) "never exhausted" true (Budget.try_spend b)
  done;
  Alcotest.(check int) "still counts" 100 (Budget.spent b);
  Alcotest.(check (option int)) "no limit" None (Budget.remaining b);
  let b' = Budget.create (-1) in
  Alcotest.(check (option int)) "negative means unlimited" None (Budget.remaining b')

let test_budget_zero () =
  let b = Budget.create 0 in
  Alcotest.(check bool) "nothing to spend" false (Budget.try_spend b)

let drive machine rounds =
  List.init rounds (fun r ->
      match machine.Engine.act r with Engine.Transmit _ -> 1 | Engine.Silent -> 0)

let test_scripted_jammer () =
  let budget = Budget.create 4 in
  let machine = Jammer.scripted (fun ~round:_ ~phase -> phase = 4) ~budget in
  let txs = drive machine 60 in
  (* phases 4 of the first 4 intervals only *)
  Alcotest.(check int) "budget caps transmissions" 4 (List.fold_left ( + ) 0 txs);
  List.iteri
    (fun r tx -> if tx = 1 then Alcotest.(check int) "only phase 4" 4 (r mod 6))
    txs;
  Alcotest.(check (option Alcotest.reject)) "never delivers" None (machine.Engine.delivered ())

let test_veto_jammer_targets_veto_rounds () =
  let rng = Rng.create 3 in
  let budget = Budget.unlimited () in
  let machine = Jammer.veto_jammer ~rng ~budget ~probability:1.0 in
  let txs = drive machine 36 in
  Alcotest.(check int) "both veto rounds of every interval" 12 (List.fold_left ( + ) 0 txs);
  List.iteri
    (fun r tx ->
      let phase = r mod 6 in
      if phase <= 3 then Alcotest.(check int) "data/ack rounds untouched" 0 tx)
    txs

let test_veto_jammer_probability_zero () =
  let rng = Rng.create 4 in
  let machine = Jammer.veto_jammer ~rng ~budget:(Budget.unlimited ()) ~probability:0.0 in
  Alcotest.(check int) "never jams" 0 (List.fold_left ( + ) 0 (drive machine 120))

(* --- bounds ----------------------------------------------------------- *)

let test_bounds_values () =
  (* R = 4 (the experiments' usual radius). *)
  Alcotest.(check int) "neighbourhood" 80 (Bounds.neighbourhood_size ~radius:4);
  Alcotest.(check int) "koo" 18 (Bounds.koo_bound ~radius:4);
  Alcotest.(check int) "multipath" 17 (Bounds.multi_path_tolerance ~radius:4);
  Alcotest.(check int) "neighbourwatch" 3 (Bounds.neighbor_watch_tolerance ~radius:4);
  Alcotest.(check int) "2-voting" 7 (Bounds.two_voting_tolerance ~radius:4)

let test_bounds_ordering () =
  List.iter
    (fun radius ->
      let nw = Bounds.neighbor_watch_tolerance ~radius in
      let nw2 = Bounds.two_voting_tolerance ~radius in
      let mp = Bounds.multi_path_tolerance ~radius in
      Alcotest.(check bool)
        (Printf.sprintf "NW <= 2vote <= MP at R=%d" radius)
        true
        (nw <= nw2 && nw2 <= mp);
      Alcotest.(check bool) "MP below Koo" true (mp < Bounds.koo_bound ~radius))
    [ 2; 3; 4; 6; 8 ]

(* The registered table: one row per radius, each carrying the bounds
   its cells print. *)
let test_bounds_table () =
  let outcome = Runner.run_job ~scale:Experiment.Quick Bounds.job in
  let rows = outcome.Runner.rows in
  Alcotest.(check int) "one row per radius" 5 (List.length rows);
  let r4 = List.nth rows 2 in
  Alcotest.(check (list string)) "R=4 row"
    [ "4"; "80"; ">= 18"; "17 (21%)"; "3 (4%)"; "7 (9%)" ]
    r4.Experiment.cells

let () =
  Alcotest.run "adversary"
    [
      ( "budget",
        [
          Alcotest.test_case "limits" `Quick test_budget_limits;
          Alcotest.test_case "unlimited" `Quick test_budget_unlimited;
          Alcotest.test_case "zero" `Quick test_budget_zero;
        ] );
      ( "jammers",
        [
          Alcotest.test_case "scripted" `Quick test_scripted_jammer;
          Alcotest.test_case "veto jammer" `Quick test_veto_jammer_targets_veto_rounds;
          Alcotest.test_case "probability zero" `Quick test_veto_jammer_probability_zero;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "values at R=4" `Quick test_bounds_values;
          Alcotest.test_case "ordering" `Quick test_bounds_ordering;
          Alcotest.test_case "summary table" `Quick test_bounds_table;
        ] );
    ]
