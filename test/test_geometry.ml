(* Tests for the geometry library: Point and Squares. *)

let check_float = Alcotest.(check (float 1e-9))
let point = Point.make

(* --- Point ------------------------------------------------------------ *)

let test_point_distances () =
  let a = point 0.0 0.0 and b = point 3.0 4.0 in
  check_float "l2" 5.0 (Point.dist_l2 a b);
  check_float "l2 self" 0.0 (Point.dist_l2 a a)

let test_point_within () =
  let a = point 0.0 0.0 and b = point 3.0 4.0 in
  Alcotest.(check bool) "within l2 5" true (Point.within Point.L2 5.0 a b);
  Alcotest.(check bool) "not within l2 4.9" false (Point.within Point.L2 4.9 a b);
  Alcotest.(check bool) "within linf 4" true (Point.within Point.Linf 4.0 a b);
  Alcotest.(check bool) "not within linf 3.9" false (Point.within Point.Linf 3.9 a b)

let test_point_metric_dispatch () =
  let a = point 0.0 0.0 and b = point 1.0 1.0 in
  Alcotest.(check bool) "L2 dispatch" false (Point.within Point.L2 1.0 a b);
  Alcotest.(check bool) "Linf dispatch" true (Point.within Point.Linf 1.0 a b);
  Alcotest.(check bool) "equal" true (Point.equal a (point 0.0 0.0))

(* --- Squares ------------------------------------------------------------ *)

let squares = Squares.make ~side:2.0 ~width:10.0 ~height:6.0

let test_squares_shape () =
  Alcotest.(check int) "cols" 5 (Squares.cols squares);
  Alcotest.(check int) "rows" 3 (Squares.rows squares);
  Alcotest.(check int) "count" 15 (Squares.count squares);
  check_float "side" 2.0 (Squares.side squares)

let test_squares_assignment () =
  Alcotest.(check int) "origin square" 0 (Squares.square_of squares (point 0.0 0.0));
  Alcotest.(check int) "interior" ((1 * 5) + 2) (Squares.square_of squares (point 4.5 3.9));
  Alcotest.(check int) "outside clamps" (Squares.count squares - 1)
    (Squares.square_of squares (point 99.0 99.0))

let test_squares_coords_roundtrip () =
  for id = 0 to Squares.count squares - 1 do
    match Squares.id_of_coords squares (Squares.coords squares id) with
    | Some id' -> Alcotest.(check int) "roundtrip" id id'
    | None -> Alcotest.fail "coords out of range"
  done;
  Alcotest.(check (option int)) "out of grid" None (Squares.id_of_coords squares (5, 0));
  Alcotest.(check (option int)) "negative" None (Squares.id_of_coords squares (-1, 0))

let test_squares_neighbors () =
  let corner = Squares.square_of squares (point 0.0 0.0) in
  Alcotest.(check int) "corner has 3" 3 (List.length (Squares.neighbors squares corner));
  let edge = Squares.square_of squares (point 4.5 0.0) in
  Alcotest.(check int) "edge has 5" 5 (List.length (Squares.neighbors squares edge));
  let middle = Squares.square_of squares (point 4.5 3.0) in
  Alcotest.(check int) "middle has 8" 8 (List.length (Squares.neighbors squares middle));
  Alcotest.(check bool) "self excluded" false (List.mem middle (Squares.neighbors squares middle))

let test_squares_sides () =
  check_float "analytic side R=4" 2.0 (Squares.analytic_side ~radius:4.0);
  check_float "analytic side R=5" 3.0 (Squares.analytic_side ~radius:5.0);
  check_float "simulation side" (4.0 /. 3.0) (Squares.simulation_side ~radius:4.0)

(* [Squares.square_of] clamps with int comparisons; the definition it
   replaced clamped with the polymorphic [Stdlib.max] and [min].  Both must
   agree on every point: random ones inside, outside and below the area,
   and points exactly on square boundaries and on the area's edges. *)
let square_of_by_polymorphic_clamp sq (p : Point.t) =
  let clamp lo hi v = max lo (min hi v) in
  let side = Squares.side sq in
  let cx = clamp 0 (Squares.cols sq - 1) (int_of_float (p.x /. side)) in
  let cy = clamp 0 (Squares.rows sq - 1) (int_of_float (p.y /. side)) in
  (cy * Squares.cols sq) + cx

let test_square_of_int_clamp () =
  let rng = Rng.create 77 in
  let check sq p =
    Alcotest.(check int)
      (Printf.sprintf "square of (%g, %g)" p.Point.x p.Point.y)
      (square_of_by_polymorphic_clamp sq p) (Squares.square_of sq p)
  in
  List.iter
    (fun (side, width, height) ->
      let sq = Squares.make ~side ~width ~height in
      for _ = 1 to 2_000 do
        let coord extent = (Rng.float rng (3.0 *. extent)) -. extent in
        check sq (point (coord width) (coord height))
      done;
      for cx = -2 to Squares.cols sq + 2 do
        for cy = -2 to Squares.rows sq + 2 do
          let x = float_of_int cx *. side and y = float_of_int cy *. side in
          List.iter (fun (dx, dy) -> check sq (point (x +. dx) (y +. dy)))
            [ (0.0, 0.0); (-1e-9, 0.0); (0.0, -1e-9); (1e-9, 1e-9) ]
        done
      done;
      List.iter (check sq)
        [ point 0.0 0.0; point width height; point width 0.0; point 0.0 height; point (-0.0) (-0.0) ])
    [ (2.0, 10.0, 6.0); (4.0 /. 3.0, 20.0, 20.0); (0.7, 5.3, 1.1); (3.0, 1.0, 1.0) ]

let prop_squares_adjacent_communicate =
  (* The defining property of the simulation square size R/3: any two
     points in 8-adjacent squares are within Euclidean distance R. *)
  QCheck.Test.make ~name:"R/3 squares: adjacent squares are in L2 range" ~count:300
    QCheck.(int_bound 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let radius = 2.0 +. Rng.float rng 6.0 in
      let side = Squares.simulation_side ~radius in
      let sq = Squares.make ~side ~width:20.0 ~height:20.0 in
      let p = point (Rng.float rng 20.0) (Rng.float rng 20.0) in
      let q = point (Rng.float rng 20.0) (Rng.float rng 20.0) in
      let sp = Squares.square_of sq p and sq_id = Squares.square_of sq q in
      if sp = sq_id || List.mem sq_id (Squares.neighbors sq sp) then
        Point.dist_l2 p q <= radius +. 1e-9
      else true)

let qtests = [ prop_squares_adjacent_communicate ]

let () =
  Alcotest.run "geometry"
    [
      ( "point",
        [
          Alcotest.test_case "distances" `Quick test_point_distances;
          Alcotest.test_case "within" `Quick test_point_within;
          Alcotest.test_case "metric dispatch" `Quick test_point_metric_dispatch;
        ] );
      ( "squares",
        [
          Alcotest.test_case "shape" `Quick test_squares_shape;
          Alcotest.test_case "assignment" `Quick test_squares_assignment;
          Alcotest.test_case "coords roundtrip" `Quick test_squares_coords_roundtrip;
          Alcotest.test_case "neighbors" `Quick test_squares_neighbors;
          Alcotest.test_case "paper sides" `Quick test_squares_sides;
          Alcotest.test_case "square_of matches the polymorphic clamp" `Quick
            test_square_of_int_clamp;
        ] );
      ("properties", List.map (fun t -> QCheck_alcotest.to_alcotest ~long:false t) qtests);
    ]
