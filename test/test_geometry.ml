(* Tests for the geometry library: Point, Box (incl. minimum enclosing
   circle), Squares. *)

let check_float = Alcotest.(check (float 1e-9))
let point = Point.make

(* --- Point ------------------------------------------------------------ *)

let test_point_distances () =
  let a = point 0.0 0.0 and b = point 3.0 4.0 in
  check_float "l2" 5.0 (Point.dist_l2 a b);
  check_float "linf" 4.0 (Point.dist_linf a b);
  check_float "l2 self" 0.0 (Point.dist_l2 a a)

let test_point_within () =
  let a = point 0.0 0.0 and b = point 3.0 4.0 in
  Alcotest.(check bool) "within l2 5" true (Point.within_l2 5.0 a b);
  Alcotest.(check bool) "not within l2 4.9" false (Point.within_l2 4.9 a b);
  Alcotest.(check bool) "within linf 4" true (Point.within_linf 4.0 a b);
  Alcotest.(check bool) "not within linf 3.9" false (Point.within_linf 3.9 a b)

let test_point_metric_dispatch () =
  let a = point 0.0 0.0 and b = point 1.0 1.0 in
  check_float "L2 dispatch" (sqrt 2.0) (Point.dist Point.L2 a b);
  check_float "Linf dispatch" 1.0 (Point.dist Point.Linf a b);
  Alcotest.(check bool) "within dispatch" true (Point.within Point.Linf 1.0 a b);
  Alcotest.(check bool) "equal" true (Point.equal a (point 0.0 0.0))

(* --- Box ---------------------------------------------------------------- *)

let test_box_of_points () =
  let b = Box.of_points [ point 1.0 5.0; point (-2.0) 3.0; point 4.0 0.0 ] in
  check_float "x_min" (-2.0) b.Box.x_min;
  check_float "x_max" 4.0 b.Box.x_max;
  check_float "y_min" 0.0 b.Box.y_min;
  check_float "y_max" 5.0 b.Box.y_max;
  check_float "width" 6.0 (Box.width b);
  check_float "height" 5.0 (Box.height b);
  Alcotest.(check bool) "contains inner" true (Box.contains b (point 0.0 2.0));
  Alcotest.(check bool) "excludes outer" false (Box.contains b (point 5.0 2.0))

let test_box_empty_raises () =
  Alcotest.(check bool) "empty raises" true
    (try
       ignore (Box.of_points []);
       false
     with Invalid_argument _ -> true)

let test_fit_linf () =
  Alcotest.(check bool) "empty fits" true (Box.fit_in_linf_ball ~radius:1.0 []);
  Alcotest.(check bool) "tight fit" true
    (Box.fit_in_linf_ball ~radius:1.0 [ point 0.0 0.0; point 2.0 2.0 ]);
  Alcotest.(check bool) "too wide" false
    (Box.fit_in_linf_ball ~radius:1.0 [ point 0.0 0.0; point 2.1 0.0 ]);
  Alcotest.(check bool) "three points" true
    (Box.fit_in_linf_ball ~radius:2.0 [ point 0.0 0.0; point 4.0 0.0; point 2.0 4.0 ])

let test_fit_l2 () =
  Alcotest.(check bool) "empty fits" true (Box.fit_in_l2_ball ~radius:1.0 []);
  Alcotest.(check bool) "single point" true (Box.fit_in_l2_ball ~radius:0.0 [ point 3.0 3.0 ]);
  Alcotest.(check bool) "pair diameter" true
    (Box.fit_in_l2_ball ~radius:1.0 [ point 0.0 0.0; point 2.0 0.0 ]);
  Alcotest.(check bool) "pair too far" false
    (Box.fit_in_l2_ball ~radius:0.99 [ point 0.0 0.0; point 2.0 0.0 ]);
  (* Equilateral triangle with side 2: circumradius 2/sqrt(3) ≈ 1.1547. *)
  let tri = [ point 0.0 0.0; point 2.0 0.0; point 1.0 (sqrt 3.0) ] in
  Alcotest.(check bool) "triangle circumradius fits" true (Box.fit_in_l2_ball ~radius:1.16 tri);
  Alcotest.(check bool) "triangle too tight" false (Box.fit_in_l2_ball ~radius:1.14 tri);
  Alcotest.(check bool) "collinear" true
    (Box.fit_in_l2_ball ~radius:2.0 [ point 0.0 0.0; point 2.0 0.0; point 4.0 0.0 ])

let prop_fit_linf_ball =
  QCheck.Test.make ~name:"points sampled in an Linf ball always fit it" ~count:200
    QCheck.(pair (int_range 1 12) (int_bound 10_000))
    (fun (count, seed) ->
      let rng = Rng.create seed in
      let radius = 1.0 +. Rng.float rng 5.0 in
      let cx = Rng.float rng 20.0 and cy = Rng.float rng 20.0 in
      let points =
        List.init count (fun _ ->
            point
              (cx +. Rng.float rng (2.0 *. radius) -. radius)
              (cy +. Rng.float rng (2.0 *. radius) -. radius))
      in
      Box.fit_in_linf_ball ~radius points)

let prop_fit_l2_ball_necessary =
  QCheck.Test.make ~name:"pair spread beyond 2r never fits an L2 ball of radius r" ~count:200
    QCheck.(int_bound 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let radius = 1.0 +. Rng.float rng 5.0 in
      let gap = (2.0 *. radius) +. 0.1 +. Rng.float rng 3.0 in
      not (Box.fit_in_l2_ball ~radius [ point 0.0 0.0; point gap 0.0 ]))

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

let test_squares_center () =
  let c = Squares.center squares 0 in
  check_float "cx" 1.0 c.Point.x;
  check_float "cy" 1.0 c.Point.y

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

let qtests = [ prop_fit_linf_ball; prop_fit_l2_ball_necessary; prop_squares_adjacent_communicate ]

let () =
  Alcotest.run "geometry"
    [
      ( "point",
        [
          Alcotest.test_case "distances" `Quick test_point_distances;
          Alcotest.test_case "within" `Quick test_point_within;
          Alcotest.test_case "metric dispatch" `Quick test_point_metric_dispatch;
        ] );
      ( "box",
        [
          Alcotest.test_case "of_points" `Quick test_box_of_points;
          Alcotest.test_case "empty raises" `Quick test_box_empty_raises;
          Alcotest.test_case "fit linf" `Quick test_fit_linf;
          Alcotest.test_case "fit l2 (mec)" `Quick test_fit_l2;
        ] );
      ( "squares",
        [
          Alcotest.test_case "shape" `Quick test_squares_shape;
          Alcotest.test_case "assignment" `Quick test_squares_assignment;
          Alcotest.test_case "coords roundtrip" `Quick test_squares_coords_roundtrip;
          Alcotest.test_case "neighbors" `Quick test_squares_neighbors;
          Alcotest.test_case "center" `Quick test_squares_center;
          Alcotest.test_case "paper sides" `Quick test_squares_sides;
          Alcotest.test_case "square_of matches the polymorphic clamp" `Quick
            test_square_of_int_clamp;
        ] );
      ("properties", List.map (fun t -> QCheck_alcotest.to_alcotest ~long:false t) qtests);
    ]
