(* Tests for the 1Hop-Protocol stream layer: alternating parity, lossless
   in-order delivery, retransmission handling, and the catch-up pointer. *)

let test_parity_alternates () =
  Alcotest.(check bool) "first parity is 1" true (One_hop.parity_of_index 0);
  Alcotest.(check bool) "second is 0" false (One_hop.parity_of_index 1);
  for i = 0 to 20 do
    Alcotest.(check bool) "alternation" true
      (One_hop.parity_of_index i = not (One_hop.parity_of_index (i + 1)))
  done

let test_sender_basics () =
  let s = One_hop.Sender.create () in
  Alcotest.(check bool) "empty stream" false (One_hop.Sender.has_current s);
  Alcotest.(check int) "nothing sent" 0 (One_hop.Sender.sent s);
  One_hop.Sender.push s true;
  One_hop.Sender.push s false;
  Alcotest.(check int) "two queued" 2 (One_hop.Sender.total s);
  Alcotest.(check bool) "has current" true (One_hop.Sender.has_current s);
  let parity = One_hop.Sender.current_parity s and data = One_hop.Sender.current_data s in
  Alcotest.(check (pair bool bool)) "first bit with parity 1" (true, true) (parity, data);
  One_hop.Sender.advance s;
  let parity = One_hop.Sender.current_parity s and data = One_hop.Sender.current_data s in
  Alcotest.(check (pair bool bool)) "second bit with parity 0" (false, false) (parity, data);
  One_hop.Sender.advance s;
  Alcotest.(check bool) "drained" false (One_hop.Sender.has_current s);
  One_hop.Sender.advance s;
  Alcotest.(check int) "advance past end is a no-op" 2 (One_hop.Sender.sent s)

let test_sender_skip_to () =
  let s = One_hop.Sender.create () in
  List.iter (One_hop.Sender.push s) [ true; true; false; true ];
  One_hop.Sender.skip_to s 2;
  Alcotest.(check int) "skipped forward" 2 (One_hop.Sender.sent s);
  One_hop.Sender.skip_to s 1;
  Alcotest.(check int) "never backwards" 2 (One_hop.Sender.sent s);
  One_hop.Sender.skip_to s 99;
  Alcotest.(check int) "clamped to total" 4 (One_hop.Sender.sent s)

let test_receiver_assembles_stream () =
  let r = One_hop.Receiver.create () in
  One_hop.Receiver.push_two_bit r ~parity:true ~data:true;
  One_hop.Receiver.push_two_bit r ~parity:false ~data:false;
  One_hop.Receiver.push_two_bit r ~parity:true ~data:true;
  Alcotest.(check int) "three bits" 3 (One_hop.Receiver.received r);
  Alcotest.(check string) "stream content" "101" (Bitvec.to_string (One_hop.Receiver.bits r));
  Alcotest.(check bool) "get" true (One_hop.Receiver.get r 0);
  Alcotest.(check string) "prefix" "10" (Bitvec.to_string (One_hop.Receiver.prefix r 2))

let test_receiver_ignores_retransmission () =
  let r = One_hop.Receiver.create () in
  One_hop.Receiver.push_two_bit r ~parity:true ~data:true;
  (* The sender retries bit 0 (same parity): receivers must not take it as
     a new bit — even with different data (a garbled retry). *)
  One_hop.Receiver.push_two_bit r ~parity:true ~data:true;
  One_hop.Receiver.push_two_bit r ~parity:true ~data:false;
  Alcotest.(check int) "duplicates dropped" 1 (One_hop.Receiver.received r);
  Alcotest.(check string) "original value kept" "1" (Bitvec.to_string (One_hop.Receiver.bits r))

let test_silence_is_not_a_bit () =
  (* Before anything is sent the expected parity is 1, so a (0, x) pattern
     — which is what pure silence would decode to — is not accepted as the
     first bit. *)
  let r = One_hop.Receiver.create () in
  One_hop.Receiver.push_two_bit r ~parity:false ~data:false;
  Alcotest.(check int) "silence rejected" 0 (One_hop.Receiver.received r)

let test_get_past_end_raises () =
  let r = One_hop.Receiver.create () in
  let past_end label i =
    Alcotest.check_raises label (Invalid_argument "One_hop.Receiver.get: index out of range")
      (fun () -> ignore (One_hop.Receiver.get r i))
  in
  past_end "empty stream" 0;
  (* Eight bits: past the first storage size, so the read lands on filler. *)
  for i = 0 to 7 do
    One_hop.Receiver.push_two_bit r ~parity:(One_hop.parity_of_index i) ~data:true
  done;
  Alcotest.(check int) "eight bits" 8 (One_hop.Receiver.received r);
  past_end "at received" (One_hop.Receiver.received r);
  past_end "negative" (-1)

let prop_lossless_transfer =
  QCheck.Test.make ~name:"sender-to-receiver transfer is lossless and ordered" ~count:200
    QCheck.(small_list bool)
    (fun bits ->
      let s = One_hop.Sender.create () in
      let r = One_hop.Receiver.create () in
      List.iter (One_hop.Sender.push s) bits;
      while One_hop.Sender.has_current s do
        let parity = One_hop.Sender.current_parity s and data = One_hop.Sender.current_data s in
        One_hop.Receiver.push_two_bit r ~parity ~data;
        One_hop.Sender.advance s
      done;
      Bitvec.to_list (One_hop.Receiver.bits r) = bits)

let prop_retries_are_harmless =
  QCheck.Test.make ~name:"arbitrary per-bit retry counts do not corrupt the stream" ~count:200
    QCheck.(pair (small_list bool) (int_bound 10_000))
    (fun (bits, seed) ->
      let rng = Rng.create seed in
      let s = One_hop.Sender.create () in
      let r = One_hop.Receiver.create () in
      List.iter (One_hop.Sender.push s) bits;
      while One_hop.Sender.has_current s do
        let parity = One_hop.Sender.current_parity s and data = One_hop.Sender.current_data s in
        (* The 2Bit exchange may fail for the sender but succeed for the
           receiver (or vice versa): deliver 1 + k copies. *)
        for _ = 0 to Rng.int rng 3 do
          One_hop.Receiver.push_two_bit r ~parity ~data
        done;
        One_hop.Sender.advance s
      done;
      Bitvec.to_list (One_hop.Receiver.bits r) = bits)

let prop_interleaved_push =
  QCheck.Test.make ~name:"bits pushed while transferring still arrive in order" ~count:100
    QCheck.(pair (small_list bool) (small_list bool))
    (fun (first, second) ->
      let s = One_hop.Sender.create () in
      let r = One_hop.Receiver.create () in
      List.iter (One_hop.Sender.push s) first;
      let step () =
        if One_hop.Sender.has_current s then begin
          let parity = One_hop.Sender.current_parity s and data = One_hop.Sender.current_data s in
          One_hop.Receiver.push_two_bit r ~parity ~data;
          One_hop.Sender.advance s
        end
      in
      step ();
      List.iter (One_hop.Sender.push s) second;
      while One_hop.Sender.has_current s do
        step ()
      done;
      Bitvec.to_list (One_hop.Receiver.bits r) = first @ second)

(* A list model of both stream ends under a random script, long enough to
   take each end's storage through every growth step up to 1 000 bits.
   [Deliver (fresh, data)] feeds the receiver a 2Bit result with its
   expected parity if [fresh], the stale parity otherwise; [Skip_by k]
   asks for the send pointer [k] past where it is. *)
type op = Push of bool | Advance | Skip_by of int | Deliver of bool * bool

let show_op = function
  | Push b -> Printf.sprintf "Push %b" b
  | Advance -> "Advance"
  | Skip_by k -> Printf.sprintf "Skip_by %d" k
  | Deliver (fresh, data) -> Printf.sprintf "Deliver (%b, %b)" fresh data

let arb_script =
  let op =
    QCheck.Gen.(
      frequency
        [
          (4, map (fun b -> Push b) bool);
          (4, map2 (fun fresh data -> Deliver (fresh, data)) (frequencyl [ (3, true); (1, false) ]) bool);
          (1, return Advance);
          (1, map (fun k -> Skip_by k) (frequency [ (4, int_range (-2) 4); (1, return 5_000) ]));
        ])
  in
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map show_op ops))
    ~shrink:(fun ops -> QCheck.Shrink.list ops)
    QCheck.Gen.(list_size (int_bound 2_500) op)

let prop_list_model =
  QCheck.Test.make ~name:"Sender and Receiver match a list model past every growth step" ~count:100
    arb_script (fun script ->
      let pushed = Array.of_list (List.filter_map (function Push b -> Some b | _ -> None) script) in
      let accepted =
        List.filter_map (function Deliver (true, data) -> Some data | _ -> None) script
      in
      let accepted_arr = Array.of_list accepted in
      let s = One_hop.Sender.create () and r = One_hop.Receiver.create () in
      let total = ref 0 and sent = ref 0 and received = ref 0 in
      let read_raises i =
        match One_hop.Receiver.get r i with
        | _ -> false
        | exception Invalid_argument _ -> true
      in
      List.for_all
        (fun op ->
          (match op with
          | Push b ->
            One_hop.Sender.push s b;
            incr total
          | Advance ->
            One_hop.Sender.advance s;
            if !sent < !total then incr sent
          | Skip_by k ->
            One_hop.Sender.skip_to s (!sent + k);
            if k > 0 then sent := min (!sent + k) !total
          | Deliver (fresh, data) ->
            let expected = One_hop.parity_of_index !received in
            One_hop.Receiver.push_two_bit r ~parity:(if fresh then expected else not expected) ~data;
            if fresh then incr received);
          One_hop.Sender.total s = !total
          && One_hop.Sender.sent s = !sent
          && One_hop.Sender.has_current s = (!sent < !total)
          && (!sent >= !total
             || One_hop.Sender.current_parity s = One_hop.parity_of_index !sent
                && One_hop.Sender.current_data s = pushed.(!sent))
          && One_hop.Receiver.received r = !received
          && (!received = 0 || One_hop.Receiver.get r (!received - 1) = accepted_arr.(!received - 1))
          && read_raises !received)
        script
      && Bitvec.to_list (One_hop.Receiver.bits r) = accepted
      && Bitvec.to_list (One_hop.Receiver.prefix r (!received / 2))
         = List.filteri (fun i _ -> i < !received / 2) accepted)

let qtests =
  [ prop_lossless_transfer; prop_retries_are_harmless; prop_interleaved_push; prop_list_model ]

let () =
  Alcotest.run "one_hop"
    [
      ( "stream",
        [
          Alcotest.test_case "parity alternates" `Quick test_parity_alternates;
          Alcotest.test_case "sender basics" `Quick test_sender_basics;
          Alcotest.test_case "skip_to" `Quick test_sender_skip_to;
          Alcotest.test_case "receiver assembles" `Quick test_receiver_assembles_stream;
          Alcotest.test_case "retransmissions ignored" `Quick test_receiver_ignores_retransmission;
          Alcotest.test_case "silence is not a bit" `Quick test_silence_is_not_a_bit;
          Alcotest.test_case "get at received raises" `Quick test_get_past_end_raises;
        ] );
      ("properties", List.map (fun t -> QCheck_alcotest.to_alcotest ~long:false t) qtests);
    ]
