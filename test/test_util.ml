(* Tests for the util library: Rng, Stats, Bitvec, Table. *)

let check_float = Alcotest.(check (float 1e-9))
let check_float_loose tolerance = Alcotest.(check (float tolerance))

(* --- Rng ------------------------------------------------------------- *)

let test_rng_determinism () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same seed, same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 7 and b = Rng.create 8 in
  let same = List.init 20 (fun _ -> Rng.int64 a = Rng.int64 b) in
  Alcotest.(check bool) "different seeds diverge" true (List.mem false same)

let test_rng_split_independence () =
  let a = Rng.create 5 in
  let b = Rng.split a in
  let xs = List.init 20 (fun _ -> Rng.int64 a) in
  let ys = List.init 20 (fun _ -> Rng.int64 b) in
  Alcotest.(check bool) "split streams differ" true (xs <> ys)

let test_rng_int_bounds () =
  let rng = Rng.create 11 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    Alcotest.(check bool) "0 <= v < 17" true (v >= 0 && v < 17)
  done

let test_rng_int_covers_range () =
  let rng = Rng.create 13 in
  let seen = Array.make 5 false in
  for _ = 1 to 500 do
    seen.(Rng.int rng 5) <- true
  done;
  Alcotest.(check bool) "all residues reached" true (Array.for_all (fun b -> b) seen)

let test_rng_float_bounds () =
  let rng = Rng.create 17 in
  for _ = 1 to 1000 do
    let v = Rng.float rng 2.5 in
    Alcotest.(check bool) "0 <= v < 2.5" true (v >= 0.0 && v < 2.5)
  done

let test_rng_bernoulli_extremes () =
  let rng = Rng.create 19 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=0 never fires" false (Rng.bernoulli rng 0.0)
  done;
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=1 always fires" true (Rng.bernoulli rng 1.0)
  done

let test_rng_normal_moments () =
  let rng = Rng.create 23 in
  let n = 20_000 in
  let samples = List.init n (fun _ -> Rng.normal rng ~mean:3.0 ~stddev:2.0) in
  let s = Stats.summarize samples in
  check_float_loose 0.1 "mean near 3" 3.0 s.Stats.mean;
  check_float_loose 0.1 "stddev near 2" 2.0 s.Stats.stddev

let test_rng_shuffle_permutes () =
  let rng = Rng.create 29 in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "still a permutation" (Array.init 50 (fun i -> i)) sorted

let test_rng_sample_without_replacement () =
  let rng = Rng.create 31 in
  let sample = Rng.sample_without_replacement rng 10 30 in
  Alcotest.(check int) "10 values" 10 (List.length sample);
  Alcotest.(check int) "all distinct" 10 (List.length (List.sort_uniq Int.compare sample));
  List.iter (fun v -> Alcotest.(check bool) "in range" true (v >= 0 && v < 30)) sample

let test_rng_bits_length () =
  let rng = Rng.create 37 in
  Alcotest.(check int) "k bits" 12 (Array.length (Rng.bits rng 12))

(* The first 8 draws of each kind from a fresh generator, recorded while
   the state was still a boxed [int64] field: keeping it in an 8-byte
   [Bytes] must not change the stream.  Floats are exact hex literals. *)
type rng_golden = {
  seed : int;
  int64s : int64 list;
  ints : int list;  (** [Rng.int t 1000] *)
  floats : float list;  (** [Rng.float t 1.0] *)
  bools : bool list;
  bernoullis : bool list;  (** [Rng.bernoulli t 0.3] *)
  normals : float list;  (** [Rng.normal t ~mean:0.0 ~stddev:1.0] *)
}

let rng_golden =
  [
    {
      seed = 0;
      int64s =
        [
          -2152535657050944081L; 7960286522194355700L; 487617019471545679L;
          -537132696929009172L; 1961750202426094747L; 6038094601263162090L;
          3207296026000306913L; -4214222208109204676L;
        ];
      ints = [ 823; 796; 679; 732; 747; 186; 913; 228 ];
      floats =
        [
          0x1.c4415072f63b9p-1; 0x1.b9e279aa86e58p-2; 0x1.b1174620025p-6;
          0x1.f1177150e499p-1; 0x1.b39896a51a87p-4; 0x1.4f2e7c31d1fa8p-2;
          0x1.6414d5f0fa298p-3; 0x1.8b082675922d5p-1;
        ];
      bools = [ true; false; true; false; true; false; true; false ];
      bernoullis = [ false; false; true; false; true; false; true; false ];
      normals =
        [
          0x1.f8140ae1026c7p-1; -0x1.682e27f92f3d9p-3; -0x1.6c93ef6b47edap-1;
          -0x1.3fd7424aef38cp-2; -0x1.3ea8af5f57791p-1; 0x1.0952fc0b82435p-1;
          -0x1.1ec04905c7d51p-1; 0x1.697dd88a27594p+0;
        ];
    };
    {
      seed = 1;
      int64s =
        [
          -4616330145664149646L; 6869446166584666695L; 8084911050856847527L;
          -846397198931878612L; 3727343498630883515L; -7456765501708208026L;
          8407459800431601144L; 3430088234347965294L;
        ];
      ints = [ 162; 791; 623; 292; 515; 782; 240; 294 ];
      floats =
        [
          0x1.7fdf0061bb85ap-1; 0x1.7d54b3920bcaap-2; 0x1.c0cd7f0f6bcf6p-2;
          0x1.e881fc76c58f3p-1; 0x1.9dd1794f3e0b4p-3; 0x1.31087e915296fp-1;
          0x1.d2b5309350688p-2; 0x1.7cd0f89b24754p-3;
        ];
      bools = [ false; true; true; false; true; false; false; false ];
      bernoullis = [ false; false; false; false; true; false; false; true ];
      normals =
        [
          0x1.5aaee8a6df8b7p+0; -0x1.6244edacb9c4bp-1; -0x1.4595a95901c39p-4;
          0x1.2b767d092a17dp-1; -0x1.4da7eb92d69c2p+0; 0x1.acfe14bd71d77p-2;
          -0x1.8169583bfa14bp-3; -0x1.561221fe9da56p+0;
        ];
    };
    {
      seed = 42;
      int64s =
        [
          -7450291807549245335L; 2958219263312191191L; 3069497704473277141L;
          885919558081284366L; -353919125003956057L; 4337243929683858115L;
          5152897204343404489L; 2820384354626331986L;
        ];
      ints = [ 473; 191; 141; 366; 847; 115; 585; 986 ];
      floats =
        [
          0x1.31367e26140c7p-1; 0x1.486da5f92b86cp-3; 0x1.54c85f31d00d8p-3;
          0x1.896d649de031p-5; 0x1.f62d40dca5d82p-1; 0x1.e187e2fea8348p-3;
          0x1.1e0b12d313f7cp-2; 0x1.392025051c93p-3;
        ];
      bools = [ true; true; true; false; true; true; true; false ];
      bernoullis = [ false; true; true; true; false; true; true; true ];
      normals =
        [
          0x1.4917f4cf5a8dbp-2; -0x1.22b63a1a5e727p+0; -0x1.e58371f5ac65cp-2;
          -0x1.7ddd37d887b83p-1; 0x1.98cf37f75f105p-1; -0x1.91c6cee1b45a2p-1;
          0x1.29348030b1a96p-2; 0x1.b20f65882fa04p-2;
        ];
    };
  ]

let test_rng_golden () =
  List.iter
    (fun g ->
      let first8 f =
        let t = Rng.create g.seed in
        List.init 8 (fun _ -> f t)
      in
      let name what = Printf.sprintf "seed %d %s" g.seed what in
      Alcotest.(check (list int64)) (name "int64") g.int64s (first8 Rng.int64);
      Alcotest.(check (list int)) (name "int") g.ints (first8 (fun t -> Rng.int t 1000));
      Alcotest.(check (list (float 0.0))) (name "float") g.floats (first8 (fun t -> Rng.float t 1.0));
      Alcotest.(check (list bool)) (name "bool") g.bools (first8 Rng.bool);
      Alcotest.(check (list bool)) (name "bernoulli") g.bernoullis
        (first8 (fun t -> Rng.bernoulli t 0.3));
      Alcotest.(check (list (float 0.0))) (name "normal") g.normals
        (first8 (fun t -> Rng.normal t ~mean:0.0 ~stddev:1.0)))
    rng_golden

(* The draws the engine and the adversaries make per round allocate
   nothing, across this module boundary too.  10^5 calls must not
   allocate a single word between them; the two clock reads may. *)
let test_rng_draws_allocate_nothing () =
  let t = Rng.create 3 in
  let words draw =
    let before = Gc.minor_words () in
    for _ = 1 to 100_000 do
      draw ()
    done;
    Gc.minor_words () -. before
  in
  List.iter
    (fun (what, draw) ->
      let w = words draw in
      Alcotest.(check bool) (Printf.sprintf "%s: %.0f words over 10^5 calls" what w) true (w < 8.0))
    [
      ("bernoulli", fun () -> ignore (Rng.bernoulli t 0.5));
      ("int", fun () -> ignore (Rng.int t 10));
      ("bool", fun () -> ignore (Rng.bool t));
    ]

(* --- Stats ----------------------------------------------------------- *)

let test_stats_mean_median () =
  check_float "mean" 2.5 (Stats.mean [ 1.0; 2.0; 3.0; 4.0 ]);
  check_float "median even" 2.5 (Stats.median [ 1.0; 2.0; 3.0; 4.0 ]);
  check_float "median odd" 3.0 (Stats.median [ 5.0; 1.0; 3.0 ]);
  check_float "mean empty" 0.0 (Stats.mean []);
  check_float "median singleton" 7.0 (Stats.median [ 7.0 ])

let test_stats_stddev () =
  check_float "known stddev" 2.0 (Stats.stddev [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ] *. sqrt (7.0 /. 8.0));
  check_float "constant data" 0.0 (Stats.stddev [ 3.0; 3.0; 3.0 ]);
  check_float "fewer than 2" 0.0 (Stats.stddev [ 42.0 ])

let test_stats_percentile () =
  let xs = [ 10.0; 20.0; 30.0; 40.0 ] in
  check_float "p0 = min" 10.0 (Stats.percentile 0.0 xs);
  check_float "p1 = max" 40.0 (Stats.percentile 1.0 xs);
  check_float "p50 interpolates" 25.0 (Stats.percentile 0.5 xs)

let test_stats_summarize () =
  let s = Stats.summarize [ 1.0; 2.0; 3.0 ] in
  Alcotest.(check int) "n" 3 s.Stats.n;
  check_float "min" 1.0 s.Stats.min;
  check_float "max" 3.0 s.Stats.max;
  check_float "median" 2.0 s.Stats.median

let test_stats_trimmed () =
  let xs = [ 10.0; 11.0; 9.0; 10.5; 9.5; 1000.0 ] in
  let t = Stats.trimmed xs in
  Alcotest.(check bool) "outlier dropped" false (List.mem 1000.0 t);
  Alcotest.(check int) "rest kept" 5 (List.length t);
  Alcotest.(check (list (float 0.0))) "short lists untouched" [ 1.0; 99.0 ]
    (Stats.trimmed [ 1.0; 99.0 ])

let test_stats_linear_fit_exact () =
  let points = List.init 10 (fun i -> (float_of_int i, (2.0 *. float_of_int i) +. 1.0)) in
  let fit = Stats.linear_fit points in
  check_float_loose 1e-9 "slope" 2.0 fit.Stats.slope;
  check_float_loose 1e-9 "intercept" 1.0 fit.Stats.intercept;
  check_float_loose 1e-9 "r2" 1.0 fit.Stats.r2

let test_stats_linear_fit_degenerate () =
  let fit = Stats.linear_fit [ (1.0, 5.0); (1.0, 7.0) ] in
  check_float "vertical data has no slope" 0.0 fit.Stats.slope;
  let fit2 = Stats.linear_fit [] in
  check_float "empty" 0.0 fit2.Stats.r2

let prop_linear_fit_recovers_line =
  QCheck.Test.make ~name:"linear_fit recovers exact lines" ~count:100
    QCheck.(triple (float_range (-5.0) 5.0) (float_range (-5.0) 5.0) (int_range 3 20))
    (fun (slope, intercept, n) ->
      let points =
        List.init n (fun i ->
            let x = float_of_int i in
            (x, (slope *. x) +. intercept))
      in
      let fit = Stats.linear_fit points in
      abs_float (fit.Stats.slope -. slope) < 1e-6
      && abs_float (fit.Stats.intercept -. intercept) < 1e-6)

(* --- Bitvec ----------------------------------------------------------- *)

let test_bitvec_string_roundtrip () =
  let s = "101101001" in
  Alcotest.(check string) "roundtrip" s (Bitvec.to_string (Bitvec.of_string s));
  Alcotest.(check string) "empty" "" (Bitvec.to_string Bitvec.empty)

let test_bitvec_of_string_invalid () =
  Alcotest.check_raises "bad char" (Invalid_argument "Bitvec.of_string: bad char x") (fun () ->
      ignore (Bitvec.of_string "10x1"))

let test_bitvec_int_roundtrip () =
  Alcotest.(check int) "decode" 11 (Bitvec.to_int (Bitvec.of_string "1011"));
  Alcotest.(check string) "encode" "01011" (Bitvec.to_string (Bitvec.of_int ~width:5 11))

let prop_bitvec_int_roundtrip =
  QCheck.Test.make ~name:"of_int/to_int roundtrip" ~count:200
    QCheck.(int_range 0 100000)
    (fun n -> Bitvec.to_int (Bitvec.of_int ~width:20 n) = n)

let test_bitvec_ops () =
  let a = Bitvec.of_string "10" and b = Bitvec.of_string "01" in
  Alcotest.(check string) "append" "1001" (Bitvec.to_string (Bitvec.append a b));
  Alcotest.(check string) "concat" "100110" (Bitvec.to_string (Bitvec.concat [ a; b; a ]));
  Alcotest.(check string) "sub" "00" (Bitvec.to_string (Bitvec.sub (Bitvec.of_string "1001") ~pos:1 ~len:2));
  Alcotest.(check bool) "equal" true (Bitvec.equal a (Bitvec.of_string "10"));
  Alcotest.(check bool) "not equal" false (Bitvec.equal a b);
  Alcotest.(check int) "fold counts ones" 2
    (Bitvec.fold_left (fun acc bit -> if bit then acc + 1 else acc) 0 (Bitvec.of_string "0101"))

let test_bitvec_digest_deterministic () =
  let m = Bitvec.of_string "110010111" in
  Alcotest.(check string) "same input same digest"
    (Bitvec.to_string (Bitvec.digest ~size:8 m))
    (Bitvec.to_string (Bitvec.digest ~size:8 m));
  Alcotest.(check int) "requested size" 8 (Bitvec.length (Bitvec.digest ~size:8 m))

let test_bitvec_digest_separates () =
  let rng = Rng.create 41 in
  let collisions = ref 0 in
  for _ = 1 to 200 do
    let a = Bitvec.random rng 32 and b = Bitvec.random rng 32 in
    if (not (Bitvec.equal a b))
       && Bitvec.equal (Bitvec.digest ~size:16 a) (Bitvec.digest ~size:16 b)
    then incr collisions
  done;
  Alcotest.(check bool) "16-bit digests rarely collide" true (!collisions <= 2)

let prop_bitvec_list_roundtrip =
  QCheck.Test.make ~name:"of_list/to_list roundtrip" ~count:200
    QCheck.(small_list bool)
    (fun bits -> Bitvec.to_list (Bitvec.of_list bits) = bits)

(* [lowest_bit] on every single-bit word, alone and below the top bit of
   a word. *)
let test_bitvec_lowest_bit () =
  let w = Bitvec.bits_per_word in
  for k = 0 to w - 1 do
    Alcotest.(check int) "lowest_bit of a single bit" k (Bitvec.lowest_bit (1 lsl k));
    Alcotest.(check int) "lowest_bit below the top bit" k
      (Bitvec.lowest_bit ((1 lsl k) lor (1 lsl (w - 1))))
  done

(* --- Calendar ---------------------------------------------------------- *)

let test_calendar_basic () =
  let c = Calendar.create () in
  Alcotest.(check bool) "starts empty" true (Calendar.is_empty c);
  Calendar.add c 5 50;
  Calendar.add c 1 10;
  Calendar.add c 3 30;
  Alcotest.(check int) "size" 3 (Calendar.size c);
  Alcotest.(check int) "min key" 1 (Calendar.min_key c);
  Alcotest.(check int) "pop returns payload" 10 (Calendar.pop_min c);
  Alcotest.(check int) "next min" 3 (Calendar.min_key c);
  Alcotest.(check int) "pop 2" 30 (Calendar.pop_min c);
  Alcotest.(check int) "pop 3" 50 (Calendar.pop_min c);
  Alcotest.(check bool) "empty again" true (Calendar.is_empty c)

let test_calendar_duplicates_and_empty () =
  let c = Calendar.create ~capacity:1 () in
  (* The engine leans on lazy deletion: the same machine may be queued at
     several rounds, and duplicate (key, value) pairs must all come back. *)
  Calendar.add c 2 7;
  Calendar.add c 2 7;
  Calendar.add c 2 9;
  Alcotest.(check int) "duplicates kept" 3 (Calendar.size c);
  let popped = List.sort Int.compare (List.init 3 (fun _ -> Calendar.pop_min c)) in
  Alcotest.(check (list int)) "payloads preserved" [ 7; 7; 9 ] popped;
  Alcotest.(check bool) "drained empties" true (Calendar.is_empty c);
  Alcotest.(check bool) "min_key on empty raises" true
    (try
       ignore (Calendar.min_key c);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "pop_min on empty raises" true
    (try
       ignore (Calendar.pop_min c);
       false
     with Invalid_argument _ -> true)

(* Drain order must be nondecreasing in key, whatever the insertion order,
   including through capacity growth from a tiny initial array. *)
let prop_calendar_drains_sorted =
  QCheck.Test.make ~name:"calendar drains keys in nondecreasing order" ~count:200
    QCheck.(small_list (pair (int_range 0 1000) (int_range 0 50)))
    (fun pairs ->
      let c = Calendar.create ~capacity:1 () in
      List.iter (fun (k, v) -> Calendar.add c k v) pairs;
      let rec drain acc last =
        if Calendar.is_empty c then List.rev acc
        else begin
          let k = Calendar.min_key c in
          if k < last then raise Exit;
          let v = Calendar.pop_min c in
          drain ((k, v) :: acc) k
        end
      in
      match drain [] min_int with
      | drained ->
        (* Same multiset of entries out as in. *)
        let pair_compare (k1, v1) (k2, v2) =
          match Int.compare k1 k2 with 0 -> Int.compare v1 v2 | c -> c
        in
        List.sort pair_compare drained = List.sort pair_compare pairs
      | exception Exit -> false)

(* --- Table ------------------------------------------------------------ *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec scan i = i + nn <= nh && (String.sub haystack i nn = needle || scan (i + 1)) in
  scan 0

let test_table_render () =
  let t = Table.create ~title:"demo" ~columns:[ "a"; "bb" ] in
  Table.add_row t [ "x"; "y" ];
  Table.add_row t [ "long-cell"; "z" ];
  let rendered = Table.render t in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true (contains rendered needle))
    [ "demo"; "long-cell"; "bb" ]

let test_table_arity () =
  let t = Table.create ~title:"t" ~columns:[ "a"; "b" ] in
  Alcotest.(check bool) "wrong arity raises" true
    (try
       Table.add_row t [ "only-one" ];
       false
     with Invalid_argument _ -> true)

let test_table_csv () =
  let t = Table.create ~title:"t" ~columns:[ "a"; "b" ] in
  Table.add_row t [ "x,1"; "plain" ];
  let csv = Table.to_csv t in
  Alcotest.(check bool) "comma cell quoted" true
    (String.length csv > 0
    &&
    let lines = String.split_on_char '\n' csv in
    List.exists (fun l -> l = "\"x,1\",plain") lines)

let test_table_cells () =
  Alcotest.(check string) "float" "3.14" (Table.cell_f 3.14159);
  Alcotest.(check string) "pct" "42.0%" (Table.cell_pct 0.42);
  Alcotest.(check string) "int" "17" (Table.cell_i 17)

let qtests =
  [
    prop_linear_fit_recovers_line;
    prop_bitvec_int_roundtrip;
    prop_bitvec_list_roundtrip;
    prop_calendar_drains_sorted;
  ]

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "split independence" `Quick test_rng_split_independence;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int covers range" `Quick test_rng_int_covers_range;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "bernoulli extremes" `Quick test_rng_bernoulli_extremes;
          Alcotest.test_case "normal moments" `Quick test_rng_normal_moments;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
          Alcotest.test_case "sampling without replacement" `Quick
            test_rng_sample_without_replacement;
          Alcotest.test_case "bits length" `Quick test_rng_bits_length;
          Alcotest.test_case "golden streams" `Quick test_rng_golden;
          Alcotest.test_case "draws allocate nothing" `Quick test_rng_draws_allocate_nothing;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean and median" `Quick test_stats_mean_median;
          Alcotest.test_case "stddev" `Quick test_stats_stddev;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "summarize" `Quick test_stats_summarize;
          Alcotest.test_case "trimmed" `Quick test_stats_trimmed;
          Alcotest.test_case "linear fit exact" `Quick test_stats_linear_fit_exact;
          Alcotest.test_case "linear fit degenerate" `Quick test_stats_linear_fit_degenerate;
        ] );
      ( "bitvec",
        [
          Alcotest.test_case "string roundtrip" `Quick test_bitvec_string_roundtrip;
          Alcotest.test_case "invalid string" `Quick test_bitvec_of_string_invalid;
          Alcotest.test_case "int roundtrip" `Quick test_bitvec_int_roundtrip;
          Alcotest.test_case "ops" `Quick test_bitvec_ops;
          Alcotest.test_case "digest deterministic" `Quick test_bitvec_digest_deterministic;
          Alcotest.test_case "digest separates" `Quick test_bitvec_digest_separates;
          Alcotest.test_case "lowest_bit" `Quick test_bitvec_lowest_bit;
        ] );
      ( "calendar",
        [
          Alcotest.test_case "ordering" `Quick test_calendar_basic;
          Alcotest.test_case "duplicates, empty errors" `Quick
            test_calendar_duplicates_and_empty;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "arity" `Quick test_table_arity;
          Alcotest.test_case "csv" `Quick test_table_csv;
          Alcotest.test_case "cells" `Quick test_table_cells;
        ] );
      ("properties", List.map (fun t -> QCheck_alcotest.to_alcotest ~long:false t) qtests);
    ]
