(* Tests for the hand-rolled JSON reader/writer: escaping, number
   formatting, nesting, the pretty printer, and the parser
   `securebit_cli compare` uses to read results files back. *)

let compact v expected () = Alcotest.(check string) "compact" expected (Json.to_string v)

let test_atoms =
  [
    ("null", compact Json.Null "null");
    ("true", compact (Json.Bool true) "true");
    ("false", compact (Json.Bool false) "false");
    ("int", compact (Json.Int (-42)) "-42");
    ("string", compact (Json.String "plain") "\"plain\"");
  ]

let test_escaping =
  [
    ("quote", compact (Json.String {|say "hi"|}) {|"say \"hi\""|});
    ("backslash", compact (Json.String {|a\b|}) {|"a\\b"|});
    ("newline+tab", compact (Json.String "a\n\tb") {|"a\n\tb"|});
    ("cr, backspace, formfeed", compact (Json.String "\r\b\012") {|"\r\b\f"|});
    ("control chars", compact (Json.String "\000\031") {|"\u0000\u001f"|});
    ("key escaping", compact (Json.Obj [ ("a\"b", Json.Null) ]) {|{"a\"b":null}|});
  ]

let test_numbers =
  [
    ("integer-valued float", compact (Json.Float 3.0) "3.0");
    ("negative zero", compact (Json.Float (-0.0)) "-0.0");
    ("plain fraction", compact (Json.Float 1.5) "1.5");
    ("tenth", compact (Json.Float 0.1) "0.1");
    ("nan is null", compact (Json.Float Float.nan) "null");
    ("infinity is null", compact (Json.Float Float.infinity) "null");
    ("neg infinity is null", compact (Json.Float Float.neg_infinity) "null");
  ]

let test_nesting =
  [
    ("empty list", compact (Json.List []) "[]");
    ("empty obj", compact (Json.Obj []) "{}");
    ( "mixed",
      compact
        (Json.Obj
           [
             ("a", Json.List [ Json.Int 1; Json.Bool true; Json.Null ]);
             ("b", Json.Obj [ ("c", Json.String "d") ]);
           ])
        {|{"a":[1,true,null],"b":{"c":"d"}}|} );
  ]

let test_pretty () =
  let v =
    Json.Obj
      [
        ("xs", Json.List [ Json.Int 1; Json.Int 2 ]);
        ("empty", Json.List []);
        ("sub", Json.Obj [ ("k", Json.Float 2.5) ]);
      ]
  in
  let expected =
    "{\n  \"xs\": [\n    1,\n    2\n  ],\n  \"empty\": [],\n  \"sub\": {\n    \"k\": 2.5\n  }\n}\n"
  in
  Alcotest.(check string) "pretty" expected (Json.to_string_pretty v)

(* The shortest-decimal rule must still round-trip exactly. *)
let prop_number_roundtrips =
  QCheck.Test.make ~name:"Json.number round-trips finite floats" ~count:1000
    QCheck.(pair (float_range (-1e9) 1e9) (int_range (-20) 20))
    (fun (mantissa, exponent) ->
      let f = mantissa *. (10.0 ** float_of_int exponent) in
      QCheck.assume (Float.is_finite f);
      float_of_string (Json.number f) = f)

(* --- parser -------------------------------------------------------------- *)

let parses input expected () =
  match Json.of_string input with
  | Ok v -> Alcotest.(check bool) ("parse " ^ input) true (v = expected)
  | Error m -> Alcotest.failf "parse %s: %s" input m

let rejects input () =
  match Json.of_string input with
  | Ok _ -> Alcotest.failf "accepted %s" input
  | Error _ -> ()

let test_parse_values =
  [
    ("null", parses "null" Json.Null);
    ("bools", parses " true " (Json.Bool true));
    ("int", parses "-42" (Json.Int (-42)));
    ("int stays int", parses "1000000" (Json.Int 1_000_000));
    ("fraction is float", parses "1.5" (Json.Float 1.5));
    ("exponent is float", parses "1e3" (Json.Float 1000.0));
    ("capital exponent", parses "2E2" (Json.Float 200.0));
    ("string", parses {|"hi"|} (Json.String "hi"));
    ("escapes", parses {|"a\n\t\"\\A"|} (Json.String "a\n\t\"\\A"));
    ( "surrogate pair",
      parses {|"😀"|} (Json.String "\xf0\x9f\x98\x80") );
    ("nested", parses {|{"a":[1,true,null],"b":{"c":"d"}}|}
       (Json.Obj
          [
            ("a", Json.List [ Json.Int 1; Json.Bool true; Json.Null ]);
            ("b", Json.Obj [ ("c", Json.String "d") ]);
          ]));
    ("empty containers", parses "[ { } , [ ] ]" (Json.List [ Json.Obj []; Json.List [] ]));
  ]

let test_parse_errors =
  [
    ("empty input", rejects "");
    ("trailing garbage", rejects "null x");
    ("unterminated string", rejects {|"abc|});
    ("bad escape", rejects {|"\q"|});
    ("unpaired surrogate", rejects {|"\ud83dA"|});
    ("missing comma", rejects "[1 2]");
    ("missing colon", rejects {|{"a" 1}|});
    ("bare word", rejects "nope");
  ]

let test_accessors () =
  let v =
    match Json.of_string {|{"id":"e1","wall_seconds":2.5,"rows":[1,2]}|} with
    | Ok v -> v
    | Error m -> Alcotest.fail m
  in
  Alcotest.(check (option string)) "member string" (Some "e1")
    (Option.bind (Json.member "id" v) Json.to_string_opt);
  Alcotest.(check (option (float 1e-9))) "member float" (Some 2.5)
    (Option.bind (Json.member "wall_seconds" v) Json.to_float_opt);
  Alcotest.(check (option int)) "list length" (Some 2)
    (Option.map List.length (Option.bind (Json.member "rows" v) Json.to_list_opt));
  Alcotest.(check (option string)) "missing member" None
    (Option.bind (Json.member "nope" v) Json.to_string_opt);
  Alcotest.(check (option (float 1e-9))) "ints read as floats" (Some 1.0)
    (Option.bind (Json.member "rows" v)
       (fun rows -> Option.bind (Json.to_list_opt rows) (fun l -> Json.to_float_opt (List.hd l))))

(* Everything the writer emits must parse back to the same value (modulo
   NaN/infinity, which serialize as null). *)
let json_gen =
  let open QCheck.Gen in
  sized
  @@ fix (fun self n ->
         let atom =
           oneof
             [
               return Json.Null;
               map (fun b -> Json.Bool b) bool;
               map (fun i -> Json.Int i) small_signed_int;
               map (fun f -> Json.Float f) (float_bound_exclusive 1e6);
               map (fun s -> Json.String s) string_printable;
             ]
         in
         if n <= 0 then atom
         else
           frequency
             [
               (2, atom);
               (1, map (fun l -> Json.List l) (list_size (int_bound 4) (self (n / 2))));
               ( 1,
                 map
                   (fun kvs -> Json.Obj kvs)
                   (list_size (int_bound 4)
                      (pair string_printable (self (n / 2)))) );
             ])

let prop_parse_roundtrips =
  QCheck.Test.make ~name:"of_string (to_string v) = v" ~count:500
    (QCheck.make json_gen)
    (fun v ->
      Json.of_string (Json.to_string v) = Ok v
      && Json.of_string (Json.to_string_pretty v) = Ok v)

let qtests = [ prop_number_roundtrips; prop_parse_roundtrips ]

let () =
  let quick (name, f) = Alcotest.test_case name `Quick f in
  Alcotest.run "json"
    [
      ("atoms", List.map quick test_atoms);
      ("escaping", List.map quick test_escaping);
      ("numbers", List.map quick test_numbers);
      ("nesting", List.map quick test_nesting);
      ("pretty", [ Alcotest.test_case "indentation" `Quick test_pretty ]);
      ("parse", List.map quick test_parse_values);
      ("parse errors", List.map quick test_parse_errors);
      ("accessors", [ Alcotest.test_case "member and coercions" `Quick test_accessors ]);
      ("properties", List.map (fun t -> QCheck_alcotest.to_alcotest ~long:false t) qtests);
    ]
