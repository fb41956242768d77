(* Tests for the 2Bit-Protocol (Theorem 1).

   The heart of this suite is an exhaustive check of the theorem over a
   closed-form model of one neighbourhood: one honest sender, [k] honest
   receivers, and an adversary that may inject activity into any subset of
   the six rounds (the adversary cannot remove activity — silence cannot be
   forged).  For all 2^6 adversary patterns, all four bit pairs and several
   receiver counts, we check:

   - Authenticity: a receiver that returns Success returns exactly the bits
     the sender sent.
   - Termination: if the sender returns Success, every receiver returned
     Success.
   - Energy: if anyone fails, the adversary was active in at least one
     round. *)

type outcome = Success | Fail

let outcome t =
  if not (Two_bit.finished t) then Alcotest.fail "outcome missing"
  else if Two_bit.succeeded t then Success
  else Fail

let armed arm =
  let t = Two_bit.create () in
  arm t;
  t

let sender ~b1 ~b2 = armed (Two_bit.send ~b1 ~b2)

let drive ~b1 ~b2 ~receivers ~adversary =
  let sender = sender ~b1 ~b2 in
  let rxs = List.init receivers (fun _ -> armed Two_bit.receive) in
  for phase = 0 to 5 do
    let sender_tx = Two_bit.act sender ~phase in
    let rx_txs = List.map (fun r -> Two_bit.act r ~phase) rxs in
    let adv_tx = adversary phase in
    (* Everyone is mutually in range: activity on the channel is the OR of
       all transmissions; a transmitter does not hear itself. *)
    let any l = List.exists (fun b -> b) l in
    let sender_hears = any rx_txs || adv_tx in
    Two_bit.observe sender ~phase ~activity:sender_hears;
    List.iteri
      (fun i r ->
        let others = List.filteri (fun j _ -> j <> i) rx_txs in
        let hears = sender_tx || any others || adv_tx in
        Two_bit.observe r ~phase ~activity:hears)
      rxs
  done;
  (outcome sender, List.map (fun r -> (outcome r, (Two_bit.bit1 r, Two_bit.bit2 r))) rxs)

let test_clean_exchange () =
  List.iter
    (fun (b1, b2) ->
      let sender_outcome, receivers =
        drive ~b1 ~b2 ~receivers:3 ~adversary:(fun _ -> false)
      in
      Alcotest.(check bool) "sender succeeds" true (sender_outcome = Success);
      List.iter
        (fun (outcome, bits) ->
          Alcotest.(check bool) "receiver succeeds" true (outcome = Success);
          Alcotest.(check (pair bool bool)) "bits delivered" (b1, b2) bits)
        receivers)
    [ (false, false); (false, true); (true, false); (true, true) ]

let test_theorem1_exhaustive () =
  let cases = ref 0 in
  for adv_mask = 0 to 63 do
    let adversary phase = adv_mask land (1 lsl phase) <> 0 in
    List.iter
      (fun (b1, b2) ->
        List.iter
          (fun receivers ->
            incr cases;
            let sender_outcome, receiver_outcomes =
              drive ~b1 ~b2 ~receivers ~adversary
            in
            (* Authenticity. *)
            List.iter
              (fun (outcome, bits) ->
                if outcome = Success then
                  Alcotest.(check (pair bool bool))
                    (Printf.sprintf "authenticity (mask %d)" adv_mask)
                    (b1, b2) bits)
              receiver_outcomes;
            (* Termination. *)
            if sender_outcome = Success then
              List.iter
                (fun (outcome, _) ->
                  Alcotest.(check bool)
                    (Printf.sprintf "termination (mask %d)" adv_mask)
                    true (outcome = Success))
                receiver_outcomes;
            (* Energy. *)
            let anyone_failed =
              sender_outcome = Fail
              || List.exists (fun (o, _) -> o = Fail) receiver_outcomes
            in
            if anyone_failed then
              Alcotest.(check bool)
                (Printf.sprintf "energy (mask %d)" adv_mask)
                true (adv_mask <> 0))
          [ 1; 2; 5 ])
      [ (false, false); (false, true); (true, false); (true, true) ]
  done;
  Alcotest.(check int) "covered all cases" (64 * 4 * 3) !cases

let test_bit_flip_is_never_accepted () =
  (* The adversary injects activity in R1 to turn a sent 0 into a received
     1; the sender detects the bogus acknowledgements and vetoes. *)
  let sender_outcome, receivers =
    drive ~b1:false ~b2:false ~receivers:2 ~adversary:(fun phase -> phase = 0)
  in
  Alcotest.(check bool) "sender vetoes" true (sender_outcome = Fail);
  List.iter
    (fun (outcome, _) ->
      Alcotest.(check bool) "no receiver accepts the flip" true (outcome = Fail))
    receivers

let test_jam_r5_fails_receivers () =
  let _, receivers = drive ~b1:true ~b2:false ~receivers:2 ~adversary:(fun p -> p = 4) in
  List.iter
    (fun (outcome, _) ->
      Alcotest.(check bool) "R5 jam fails receivers" true (outcome = Fail))
    receivers

let test_jam_r6_fails_sender () =
  let sender_outcome, receivers =
    drive ~b1:true ~b2:true ~receivers:2 ~adversary:(fun p -> p = 5)
  in
  Alcotest.(check bool) "R6 jam fails sender" true (sender_outcome = Fail);
  (* Receivers decided before R6 and keep their (correct) bits. *)
  List.iter
    (fun (outcome, bits) ->
      Alcotest.(check bool) "receivers already succeeded" true (outcome = Success);
      Alcotest.(check (pair bool bool)) "correct bits" (true, true) bits)
    receivers

let test_sender_vetoed_flag () =
  let sender = sender ~b1:true ~b2:false in
  (* No acknowledgements arrive for the sent 1: mismatch, so the sender's
     R5 transmission is its veto. *)
  for phase = 0 to 5 do
    let tx = Two_bit.act sender ~phase in
    if phase = 4 then Alcotest.(check bool) "vetoed" true tx;
    Two_bit.observe sender ~phase ~activity:false
  done;
  Alcotest.(check bool) "failure" true (outcome sender = Fail)

let test_blocker_vetoes_data () =
  let blocker = armed Two_bit.block in
  Alcotest.(check bool) "silent before" false (Two_bit.act blocker ~phase:4);
  Two_bit.observe blocker ~phase:0 ~activity:true;
  Alcotest.(check bool) "saw data" true (Two_bit.engaged blocker);
  Alcotest.(check bool) "vetoes R5" true (Two_bit.act blocker ~phase:4);
  Alcotest.(check bool) "vetoes R6" true (Two_bit.act blocker ~phase:5);
  Alcotest.(check bool) "never transmits in data rounds" false (Two_bit.act blocker ~phase:0)

let test_blocker_ignores_acks () =
  let blocker = armed Two_bit.block in
  Two_bit.observe blocker ~phase:1 ~activity:true;
  Two_bit.observe blocker ~phase:3 ~activity:true;
  Alcotest.(check bool) "ack rounds are not data" false (Two_bit.engaged blocker);
  Alcotest.(check bool) "no veto" false (Two_bit.act blocker ~phase:4)

let test_outcome_not_ready_early () =
  Alcotest.(check bool) "sender pending" false (Two_bit.finished (sender ~b1:true ~b2:true));
  Alcotest.(check bool) "receiver pending" false (Two_bit.finished (armed Two_bit.receive))

let test_bad_phase_rejected () =
  let sender = sender ~b1:true ~b2:true in
  Alcotest.(check bool) "act phase 6 rejected" true
    (try
       ignore (Two_bit.act sender ~phase:6);
       false
     with Invalid_argument _ -> true)

let () =
  Alcotest.run "two_bit"
    [
      ( "protocol",
        [
          Alcotest.test_case "clean exchange, all bit pairs" `Quick test_clean_exchange;
          Alcotest.test_case "Theorem 1, exhaustive adversaries" `Quick test_theorem1_exhaustive;
          Alcotest.test_case "bit flip never accepted" `Quick test_bit_flip_is_never_accepted;
          Alcotest.test_case "R5 jam fails receivers" `Quick test_jam_r5_fails_receivers;
          Alcotest.test_case "R6 jam fails sender only" `Quick test_jam_r6_fails_sender;
          Alcotest.test_case "sender veto flag" `Quick test_sender_vetoed_flag;
          Alcotest.test_case "outcomes not ready early" `Quick test_outcome_not_ready_early;
          Alcotest.test_case "bad phase rejected" `Quick test_bad_phase_rejected;
        ] );
      ( "blocker",
        [
          Alcotest.test_case "vetoes on data activity" `Quick test_blocker_vetoes_data;
          Alcotest.test_case "ignores acknowledgements" `Quick test_blocker_ignores_acks;
        ] );
    ]
