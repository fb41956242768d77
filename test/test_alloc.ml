(* Measured allocation on the hot paths: the one list of them.

   Each case drives one hot entry point many times on a fixed,
   deterministic input and gates the minor words it allocates per call.
   [Gc.minor_words ()] is exact on the calling domain: it adds the words
   of the current minor heap to those of completed collections.  Over
   18 000 refs (36 034 words) [Gc.quick_stat] read 0, since it counts
   only completed collections, and [Gc.counters] read 4 504 on OCaml
   5.1.  Ceilings are the measured values; where a path allocates
   nothing the ceiling is 0.  The engine's own loop is gated per executed
   round in test_sim ("calendar does not grow"). *)

(* Minor words one call of [f] allocates. *)
let words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* Mean minor words per call of [f] over [calls] calls, after one warm-up
   call that may size scratch state. *)
let per_call ?(calls = 10_000) f =
  f ();
  words (fun () ->
      for _ = 1 to calls do
        f ()
      done)
  /. float_of_int calls

let gate ~ceiling what measured =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.2f words per call, at most %g" what measured ceiling)
    true (measured <= ceiling)

(* --- Calendar ------------------------------------------------------------- *)

(* A push and a pop on a heap of 100 entries, keys from a fixed
   multiplicative walk: the sift loops keep their indices in registers. *)
let test_calendar () =
  let cal = Calendar.create ~capacity:256 () in
  for i = 0 to 99 do
    Calendar.add cal ((i * 7919) land 1023) i
  done;
  let i = ref 0 in
  gate ~ceiling:0.0 "Calendar.add + pop_min"
    (per_call (fun () ->
         incr i;
         Calendar.add cal ((!i * 7919) land 1023) !i;
         ignore (Calendar.pop_min cal)))

(* --- Channel -------------------------------------------------------------- *)

(* 64 touched receivers in every state the rule distinguishes: nothing
   decodable, one clean signal, a captured strong one and a collision. *)
let test_resolve_packed () =
  let n = 64 in
  let touched = Array.init n (fun i -> i) in
  let sum_power = Array.make n 0.0 and best_power = Array.make n 0.0 in
  let n_decodable = Array.make n 0 and best_slot = Array.make n 0 in
  for i = 0 to n - 1 do
    let best = 1.0 +. float_of_int (i mod 7) in
    let others = float_of_int (i mod 3) *. 0.4 in
    n_decodable.(i) <- i mod 4;
    best_power.(i) <- best;
    sum_power.(i) <- best +. others;
    best_slot.(i) <- i mod 5
  done;
  let out = Array.make n 0 in
  List.iter
    (fun (name, params) ->
      gate ~ceiling:0.0
        (Printf.sprintf "Channel.resolve_packed, %d receivers, %s" n name)
        (per_call (fun () ->
             Channel.resolve_packed params ~touched ~n_touched:n ~sum_power ~n_decodable
               ~best_power ~best_slot ~out)))
    [ ("ideal", Channel.ideal); ("realistic", Channel.realistic) ]

(* --- Voting --------------------------------------------------------------- *)

let item origin value points = { Voting.origin; value; points }

let test_tally_add () =
  let t = Voting.Tally.create () in
  let i = ref 0 in
  gate ~ceiling:0.0 "Voting.Tally.add"
    (per_call (fun () ->
         incr i;
         Voting.Tally.add t (!i land 1 = 0)))

(* A replay returns before it stores anything. *)
let test_index_add_duplicate () =
  let index = Voting.Index.create () in
  let replay = item (3, 4) true [ Point.make 3.0 4.0 ] in
  Voting.Index.add index replay;
  gate ~ceiling:0.0 "Voting.Index.add, duplicate item"
    (per_call (fun () -> Voting.Index.add index replay))

(* A new item costs its two table buckets and its cons cell, plus the
   tables' doubling amortised over 1 000 distinct items.  Measured: 14.1
   words per item. *)
let test_index_add_new () =
  let items =
    Array.init 1_000 (fun k ->
        item (k, k / 7) (k mod 3 <> 0) [ Point.make (float_of_int k) (float_of_int (k / 7)) ])
  in
  let index = Voting.Index.create () in
  let total = words (fun () -> Array.iter (Voting.Index.add index) items) in
  gate ~ceiling:14.1 "Voting.Index.add, new item (mean over 1 000)"
    (total /. float_of_int (Array.length items))

(* Five items, need 3, R = 4: the window scan passes anchor points and the
   radius down its recursive scanners, never a float it computed, so it
   boxes nothing. *)
let test_index_decide () =
  let index = Voting.Index.create () in
  List.iter (Voting.Index.add index)
    [
      item (0, 0) true [ Point.make 0.0 0.0 ];
      item (1, 0) true [ Point.make 9.0 1.0 ];
      item (2, 0) true [ Point.make 3.0 7.5; Point.make 4.0 2.0 ];
      item (3, 0) true [ Point.make 6.0 3.0 ];
      item (4, 0) false [ Point.make 5.0 5.0 ];
    ];
  Alcotest.(check bool) "the fixed input reaches quorum" true
    (Voting.Index.decide index ~radius:4.0 ~need:3 ~value:true);
  gate ~ceiling:0.0 "Voting.Index.decide (5 items, need 3, R = 4)"
    (per_call (fun () -> ignore (Voting.Index.decide index ~radius:4.0 ~need:3 ~value:true)))

(* --- NeighborWatchRB frontier vote ------------------------------------------ *)

module Vote = Neighbor_watch.Vote

let bit k = k mod 3 <> 1

(* Streams that have each received [len] bits of the fixed message. *)
let streams providers len =
  Array.map
    (fun provider ->
      let st = Vote.stream provider in
      for k = 0 to len - 1 do
        One_hop.Receiver.push_two_bit (Vote.receiver st) ~parity:(One_hop.parity_of_index k)
          ~data:(bit k)
      done;
      st)
    providers

(* [calls] polls whose committed prefix grows by one bit before each, so
   every poll moves the frontier, advances each stream's agreement
   pointer by one bit and tallies each stream once. *)
let advancing_polls ~calls providers =
  let vote = Vote.create ~votes:2 in
  let streams = streams providers (calls + 2) in
  let committed = Buffer.create (calls + 2) in
  let k = ref 0 in
  let poll () =
    Buffer.add_char committed (if bit !k then '1' else '0');
    incr k;
    match Vote.poll vote ~committed streams with
    | Some v when v = bit !k -> ()
    | Some _ | None -> Alcotest.fail "the streams did not decide the frontier bit"
  in
  per_call ~calls poll

let test_vote_poll () =
  let calls = 10_000 in
  gate ~ceiling:0.0 "Neighbor_watch.Vote.poll, three square streams, frontier advancing"
    (advancing_polls ~calls [| Vote.Sq 0; Vote.Sq 1; Vote.Sq 2 |]);
  gate ~ceiling:0.0 "Neighbor_watch.Vote.poll, source heard, frontier advancing"
    (advancing_polls ~calls [| Vote.Src; Vote.Sq 0 |]);
  (* The source has spoken at a frontier that stays put: each poll only
     returns the stored answer. *)
  let vote = Vote.create ~votes:1 in
  let held = streams [| Vote.Src; Vote.Sq 0 |] 4 in
  let committed = Buffer.create 4 in
  Buffer.add_string committed "10";
  gate ~ceiling:0.0 "Neighbor_watch.Vote.poll, source heard, frontier held"
    (per_call (fun () -> ignore (Vote.poll vote ~committed held)))

let () =
  Alcotest.run "alloc"
    [
      ("calendar", [ Alcotest.test_case "add and pop_min" `Quick test_calendar ]);
      ("channel", [ Alcotest.test_case "resolve_packed" `Quick test_resolve_packed ]);
      ( "voting",
        [
          Alcotest.test_case "Tally.add" `Quick test_tally_add;
          Alcotest.test_case "Index.add, duplicate" `Quick test_index_add_duplicate;
          Alcotest.test_case "Index.add, new item" `Quick test_index_add_new;
          Alcotest.test_case "Index.decide" `Quick test_index_decide;
        ] );
      ("neighbor vote", [ Alcotest.test_case "Vote.poll" `Quick test_vote_poll ]);
    ]
