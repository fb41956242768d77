(* Tests for the MultiPathRB wire frames: self-delimiting encoding, index
   bounds, lattice snapping, and delta clamping. *)

let codec = Frame.codec ~msg_len:16 ~coord_range:8.0 ~coord_step:0.5

let frame_testable =
  let pp fmt = function
    | Frame.Source v -> Format.fprintf fmt "Source %b" v
    | Frame.Commit { index; value } -> Format.fprintf fmt "Commit(%d,%b)" index value
    | Frame.Heard { index; value; cause = dx, dy } ->
      Format.fprintf fmt "Heard(%d,%b,(%d,%d))" index value dx dy
  in
  Alcotest.testable pp ( = )

let roundtrip frame = Frame.decode codec (Frame.encode codec frame)

let test_roundtrip_source () =
  Alcotest.(check (option frame_testable)) "source true" (Some (Frame.Source true))
    (roundtrip (Frame.Source true));
  Alcotest.(check (option frame_testable)) "source false" (Some (Frame.Source false))
    (roundtrip (Frame.Source false))

let test_roundtrip_commit () =
  List.iter
    (fun index ->
      let frame = Frame.Commit { index; value = index mod 2 = 0 } in
      Alcotest.(check (option frame_testable)) "commit" (Some frame) (roundtrip frame))
    [ 0; 1; 7; 15 ]

let test_roundtrip_heard () =
  List.iter
    (fun cause ->
      let frame = Frame.Heard { index = 3; value = true; cause } in
      Alcotest.(check (option frame_testable)) "heard" (Some frame) (roundtrip frame))
    [ (0, 0); (16, -16); (-16, 16); (5, -3) ]

let test_lengths_match_tag () =
  List.iter
    (fun frame ->
      let bits = Frame.encode codec frame in
      Alcotest.(check int) "self-delimiting" (Bitvec.length bits)
        (Frame.length_of_tag_bits codec (Bitvec.get bits 0) (Bitvec.get bits 1)))
    [
      Frame.Source true;
      Frame.Commit { index = 5; value = false };
      Frame.Heard { index = 9; value = true; cause = (1, 1) };
    ]

(* The tag length agrees with the encoded length of every frame kind,
   across codecs of different index and coordinate widths, and each valid
   tag's length is even (the padding); the unused tag reads -1. *)
let test_length_of_tag_bits () =
  List.iter
    (fun (msg_len, coord_range, coord_step) ->
      let c = Frame.codec ~msg_len ~coord_range ~coord_step in
      List.iter
        (fun (b0, b1) ->
          let label = Printf.sprintf "msg_len %d, tag %b%b" msg_len b0 b1 in
          let len = Frame.length_of_tag_bits c b0 b1 in
          Alcotest.(check bool) label true (len >= 3 && len mod 2 = 0))
        [ (false, false); (false, true); (true, false) ];
      Alcotest.(check int)
        (Printf.sprintf "msg_len %d, tag 11 invalid" msg_len)
        (-1) (Frame.length_of_tag_bits c true true);
      List.iter
        (fun frame ->
          let bits = Frame.encode c frame in
          Alcotest.(check int)
            (Printf.sprintf "msg_len %d, encoded length" msg_len)
            (Bitvec.length bits)
            (Frame.length_of_tag_bits c (Bitvec.get bits 0) (Bitvec.get bits 1)))
        [
          Frame.Source false;
          Frame.Commit { index = msg_len - 1; value = true };
          Frame.Heard { index = 0; value = false; cause = (1, -1) };
        ])
    [ (1, 1.0, 1.0); (4, 2.5, 0.5); (5, 8.0, 0.5); (16, 8.0, 0.5); (100, 3.0, 0.25) ]

let test_invalid_tag () =
  Alcotest.(check int) "tag 11 invalid" (-1) (Frame.length_of_tag_bits codec true true);
  Alcotest.(check (option frame_testable)) "decode tag 11" None
    (Frame.decode codec (Bitvec.of_string "111"))

let test_wrong_length_rejected () =
  let bits = Frame.encode codec (Frame.Commit { index = 1; value = true }) in
  let truncated = Bitvec.sub bits ~pos:0 ~len:(Bitvec.length bits - 1) in
  Alcotest.(check (option frame_testable)) "truncated" None (Frame.decode codec truncated)

let test_out_of_range_index_rejected () =
  (* With msg_len = 5 the index field has 3 bits, so the all-ones field
     codes index 7 >= 5, which must be rejected. *)
  let c5 = Frame.codec ~msg_len:5 ~coord_range:8.0 ~coord_step:0.5 in
  let bits =
    Bitvec.concat
      [ Bitvec.of_list [ false; true ]; Bitvec.create (Frame.index_bits c5) true;
        Bitvec.of_list [ true ] ]
  in
  Alcotest.(check (option frame_testable)) "index out of range" None (Frame.decode c5 bits)

let test_delta_clamping () =
  (* coord_range 8.0 at step 0.5 -> max delta 16 cells. *)
  match roundtrip (Frame.Heard { index = 0; value = false; cause = (100, -100) }) with
  | Some (Frame.Heard { cause = dx, dy; _ }) ->
    Alcotest.(check int) "dx clamped" 16 dx;
    Alcotest.(check int) "dy clamped" (-16) dy
  | Some _ | None -> Alcotest.fail "expected heard frame"

let test_snap_canonical () =
  let a = Frame.snap codec (Point.make 3.20 4.90) in
  let b = Frame.snap codec (Point.make 3.05 5.10) in
  Alcotest.(check (pair int int)) "nearby points share a cell" a b;
  Alcotest.(check (pair int int)) "expected cell" (6, 10) a

let test_lattice_point () =
  let p = Frame.lattice_point codec (6, 10) in
  Alcotest.(check (float 1e-9)) "x" 3.0 p.Point.x;
  Alcotest.(check (float 1e-9)) "y" 5.0 p.Point.y

let test_index_bits_sizing () =
  Alcotest.(check int) "16 values need 4 bits" 4 (Frame.index_bits codec);
  let c1 = Frame.codec ~msg_len:1 ~coord_range:4.0 ~coord_step:0.5 in
  Alcotest.(check int) "at least one bit" 1 (Frame.index_bits c1);
  let c5 = Frame.codec ~msg_len:5 ~coord_range:4.0 ~coord_step:0.5 in
  Alcotest.(check int) "5 values need 3 bits" 3 (Frame.index_bits c5)

let prop_roundtrip =
  QCheck.Test.make ~name:"encode/decode roundtrip for in-range frames" ~count:500
    QCheck.(
      triple (int_range 0 15) bool (pair (int_range (-16) 16) (int_range (-16) 16)))
    (fun (index, value, cause) ->
      let frames =
        [ Frame.Source value; Frame.Commit { index; value }; Frame.Heard { index; value; cause } ]
      in
      List.for_all (fun f -> roundtrip f = Some f) frames)

let prop_snap_consistent_with_lattice =
  QCheck.Test.make ~name:"snap(lattice_point k) = k" ~count:300
    QCheck.(pair (int_range (-40) 40) (int_range (-40) 40))
    (fun k -> Frame.snap codec (Frame.lattice_point codec k) = k)

let qtests = [ prop_roundtrip; prop_snap_consistent_with_lattice ]

let () =
  Alcotest.run "frame"
    [
      ( "codec",
        [
          Alcotest.test_case "roundtrip source" `Quick test_roundtrip_source;
          Alcotest.test_case "roundtrip commit" `Quick test_roundtrip_commit;
          Alcotest.test_case "roundtrip heard" `Quick test_roundtrip_heard;
          Alcotest.test_case "self-delimiting lengths" `Quick test_lengths_match_tag;
          Alcotest.test_case "allocation-free tag length" `Quick test_length_of_tag_bits;
          Alcotest.test_case "invalid tag" `Quick test_invalid_tag;
          Alcotest.test_case "wrong length rejected" `Quick test_wrong_length_rejected;
          Alcotest.test_case "out-of-range index rejected" `Quick
            test_out_of_range_index_rejected;
          Alcotest.test_case "delta clamping" `Quick test_delta_clamping;
          Alcotest.test_case "snap canonical" `Quick test_snap_canonical;
          Alcotest.test_case "lattice point" `Quick test_lattice_point;
          Alcotest.test_case "index bits sizing" `Quick test_index_bits_sizing;
        ] );
      ("properties", List.map (fun t -> QCheck_alcotest.to_alcotest ~long:false t) qtests);
    ]
