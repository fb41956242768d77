(* Unit tests for the benchmark's order statistics and regression rule. *)

let close = Alcotest.float 1e-9

let test_median () =
  Alcotest.check close "odd" 3.0 (Perf_stats.median [ 5.0; 1.0; 3.0 ]);
  Alcotest.check close "even" 2.5 (Perf_stats.median [ 4.0; 1.0; 3.0; 2.0 ]);
  Alcotest.check close "single" 7.0 (Perf_stats.median [ 7.0 ])

(* Reference values from Python: statistics.quantiles(xs, n=4). *)
let test_quartiles () =
  let check name xs (a, b, c) =
    let q1, q2, q3 = Perf_stats.quartiles xs in
    Alcotest.check close (name ^ " q1") a q1;
    Alcotest.check close (name ^ " q2") b q2;
    Alcotest.check close (name ^ " q3") c q3
  in
  check "1..10" (List.init 10 (fun i -> float_of_int (i + 1))) (2.75, 5.5, 8.25);
  check "1..5" [ 5.0; 4.0; 3.0; 2.0; 1.0 ] (1.5, 3.0, 4.5);
  check "two points" [ 1.0; 2.0 ] (0.75, 1.5, 2.25);
  Alcotest.check close "spread of 1..10" (5.5 /. 5.5) (Perf_stats.spread (List.init 10 (fun i -> float_of_int (i + 1))))

let test_tail () =
  Alcotest.(check (option (pair int close)))
    "10 samples support no tail" None
    (Perf_stats.tail (List.init 10 float_of_int));
  Alcotest.(check (option (pair int close)))
    "11 samples: p9, the minimum" (Some (9, 0.0))
    (Perf_stats.tail (List.init 11 float_of_int));
  (* 72 samples, as the paper workload's pass: p86 at rank 62, ten beyond. *)
  let xs = List.init 72 float_of_int in
  Alcotest.(check (option (pair int close))) "72 samples" (Some (86, 61.0)) (Perf_stats.tail xs);
  match Perf_stats.tail xs with
  | Some (_, v) ->
    Alcotest.(check int) "ten beyond" 10 (List.length (List.filter (fun x -> x > v) xs))
  | None -> Alcotest.fail "no tail"

let test_bounds () =
  let r ~better ?(floor = 0.0) base current =
    Perf_stats.regressed ~better ~bound:0.10 ~floor ~base ~current
  in
  Alcotest.(check bool) "lower: 11% worse" true (r ~better:Perf_stats.Lower 1.0 1.11);
  Alcotest.(check bool) "lower: 9% worse" false (r ~better:Perf_stats.Lower 1.0 1.09);
  Alcotest.(check bool) "lower: better" false (r ~better:Perf_stats.Lower 1.0 0.5);
  Alcotest.(check bool) "higher: 11% fewer" true (r ~better:Perf_stats.Higher 100.0 89.0);
  Alcotest.(check bool) "higher: 9% fewer" false (r ~better:Perf_stats.Higher 100.0 91.0);
  Alcotest.(check bool) "higher: more" false (r ~better:Perf_stats.Higher 100.0 150.0);
  Alcotest.(check bool)
    "floor absorbs a large share of a small time" false
    (r ~better:Perf_stats.Lower ~floor:0.05 0.02 0.06);
  Alcotest.(check bool)
    "beyond both share and floor" true
    (r ~better:Perf_stats.Lower ~floor:0.05 0.5 0.6);
  Alcotest.(check (option bool))
    "direction names" (Some true)
    (Option.map (fun b -> b = Perf_stats.Lower) (Perf_stats.better_of_string "lower"))

let () =
  Alcotest.run "perf"
    [
      ( "perf stats",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "quartiles match python" `Quick test_quartiles;
          Alcotest.test_case "tail percentile rule" `Quick test_tail;
        ] );
      ("perf bounds", [ Alcotest.test_case "direction, share and floor" `Quick test_bounds ]);
    ]
