(* Tests for the radio substrate: propagation models and channel
   resolution with carrier sensing. *)

let check_float = Alcotest.(check (float 1e-9))
let point = Point.make

(* --- Propagation ------------------------------------------------------ *)

let test_disk_power () =
  let prop = Propagation.disk_linf 4.0 in
  check_float "in range" 1.0
    (Propagation.received_power prop ~src:(point 0.0 0.0) ~dst:(point 4.0 4.0));
  check_float "out of range" 0.0
    (Propagation.received_power prop ~src:(point 0.0 0.0) ~dst:(point 4.1 0.0));
  let l2 = Propagation.disk_l2 4.0 in
  check_float "l2 disk excludes corner" 0.0
    (Propagation.received_power l2 ~src:(point 0.0 0.0) ~dst:(point 4.0 4.0))

let test_friis_power () =
  let prop = Propagation.friis 4.0 in
  check_float "power 1 at rx range"
    1.0
    (Propagation.received_power prop ~src:(point 0.0 0.0) ~dst:(point 4.0 0.0));
  check_float "inverse square" 4.0
    (Propagation.received_power prop ~src:(point 0.0 0.0) ~dst:(point 2.0 0.0));
  Alcotest.(check bool) "infinite at zero distance" true
    (Propagation.received_power prop ~src:(point 1.0 1.0) ~dst:(point 1.0 1.0) = infinity)

let test_friis_sense_threshold () =
  let prop = Propagation.friis ~sense_factor:2.0 4.0 in
  check_float "rx range" 4.0 (Propagation.rx_range prop);
  check_float "sense range" 8.0 (Propagation.sense_range prop);
  (* Power at the sense range must equal the sense threshold. *)
  check_float "threshold consistency"
    (Propagation.sense_threshold prop)
    (Propagation.received_power prop ~src:(point 0.0 0.0) ~dst:(point 8.0 0.0))

let test_disk_ranges () =
  let prop = Propagation.disk_l2 3.0 in
  check_float "rx = sense for disks" (Propagation.rx_range prop) (Propagation.sense_range prop);
  Alcotest.(check bool) "disk sense threshold below full power" true
    (Propagation.sense_threshold prop < 1.0)

let prop_friis_monotonic =
  QCheck.Test.make ~name:"friis power decreases with distance" ~count:200
    QCheck.(pair (float_range 0.5 10.0) (float_range 0.1 20.0))
    (fun (r, d) ->
      let prop = Propagation.friis r in
      let p1 = Propagation.received_power prop ~src:(point 0.0 0.0) ~dst:(point d 0.0) in
      let p2 = Propagation.received_power prop ~src:(point 0.0 0.0) ~dst:(point (d +. 1.0) 0.0) in
      p1 > p2)

(* --- Channel ----------------------------------------------------------- *)

let obs_testable =
  Alcotest.testable (Channel.pp Format.pp_print_int) (Channel.equal Int.equal)

let resolve ?rng params txs = Channel_oracle.resolve ?rng params ~sense_threshold:0.3 txs

let test_channel_silence () =
  Alcotest.check obs_testable "no tx" Channel.Silence (resolve Channel.ideal []);
  Alcotest.check obs_testable "below sense floor" Channel.Silence
    (resolve Channel.ideal [ { Channel_oracle.power = 0.2; payload = 1 } ])

let test_channel_clear () =
  Alcotest.check obs_testable "single decodable" (Channel.Clear 7)
    (resolve Channel.ideal [ { Channel_oracle.power = 1.5; payload = 7 } ])

let test_channel_busy_collision () =
  Alcotest.check obs_testable "two decodable, no capture" Channel.Busy
    (resolve Channel.ideal
       [ { Channel_oracle.power = 1.0; payload = 1 }; { Channel_oracle.power = 1.0; payload = 2 } ])

let test_channel_busy_weak () =
  Alcotest.check obs_testable "sensed but undecodable" Channel.Busy
    (resolve Channel.ideal [ { Channel_oracle.power = 0.5; payload = 1 } ])

let test_channel_weak_interference_ideal () =
  (* The ideal (no capture) channel treats any co-channel energy as a
     collision. *)
  Alcotest.check obs_testable "weak interferer corrupts" Channel.Busy
    (resolve Channel.ideal
       [ { Channel_oracle.power = 5.0; payload = 1 }; { Channel_oracle.power = 0.4; payload = 2 } ])

let test_channel_capture () =
  let params = { Channel.capture_ratio = 3.0; loss_prob = 0.0 } in
  Alcotest.check obs_testable "strong signal captured" (Channel.Clear 1)
    (resolve params
       [ { Channel_oracle.power = 3.0; payload = 1 }; { Channel_oracle.power = 0.9; payload = 2 } ]);
  Alcotest.check obs_testable "not strong enough" Channel.Busy
    (resolve params
       [ { Channel_oracle.power = 2.0; payload = 1 }; { Channel_oracle.power = 0.9; payload = 2 } ])

let test_channel_loss () =
  let rng = Rng.create 5 in
  let params = { Channel.capture_ratio = infinity; loss_prob = 1.0 } in
  Alcotest.check obs_testable "always-lost packet still sensed" Channel.Busy
    (resolve ~rng params [ { Channel_oracle.power = 2.0; payload = 1 } ])

let test_channel_loss_requires_rng () =
  let params = { Channel.capture_ratio = infinity; loss_prob = 0.5 } in
  Alcotest.(check bool) "missing rng raises" true
    (try
       ignore (resolve params [ { Channel_oracle.power = 2.0; payload = 1 } ]);
       false
     with Invalid_argument _ -> true)

let test_channel_is_activity () =
  Alcotest.(check bool) "silence" false (Channel.is_activity Channel.Silence);
  Alcotest.(check bool) "busy" true (Channel.is_activity Channel.Busy);
  Alcotest.(check bool) "clear" true (Channel.is_activity (Channel.Clear 0))

let prop_resolve_never_invents_payload =
  QCheck.Test.make ~name:"resolve only returns transmitted payloads" ~count:300
    QCheck.(small_list (pair (float_range 0.0 5.0) small_int))
    (fun txs ->
      let txs = List.map (fun (power, payload) -> { Channel_oracle.power; payload }) txs in
      match resolve Channel.ideal txs with
      | Channel.Clear payload -> List.exists (fun tx -> tx.Channel_oracle.payload = payload) txs
      | Channel.Silence | Channel.Busy -> true)

let prop_resolve_single_strong_is_clear =
  QCheck.Test.make ~name:"lone decodable signal is always decoded (ideal)" ~count:200
    QCheck.(float_range 1.0 100.0)
    (fun power ->
      resolve Channel.ideal [ { Channel_oracle.power; payload = 9 } ] = Channel.Clear 9)

(* The engine's packed fast path must be observation-equivalent to the
   variant reference [Channel_oracle.resolve] (fast paths included).  Rebuild the flat per-receiver
   aggregates the engine's fan-out keeps — same sense filter, same loss
   coin order — and check [resolve_packed] decodes to the same observation
   on the same RNG stream. *)
let prop_resolve_packed_agrees =
  QCheck.Test.make ~name:"packed resolution agrees with the variant channel" ~count:500
    QCheck.(triple (small_list (pair (float_range 0.0 5.0) small_int)) (int_range 0 10000) bool)
    (fun (raw, seed, lossy) ->
      let params =
        if lossy then { Channel.capture_ratio = 3.0; loss_prob = 0.25 } else Channel.ideal
      in
      let sense_threshold = 0.3 in
      let txs = List.map (fun (power, payload) -> { Channel_oracle.power; payload }) raw in
      let expected = Channel_oracle.resolve ~rng:(Rng.create seed) params ~sense_threshold txs in
      let rng = Rng.create seed in
      let sum = ref 0.0 and n_dec = ref 0 and best_pow = ref 0.0 and best = ref 0 in
      let sensed = ref 0 in
      List.iteri
        (fun slot tx ->
          if tx.Channel_oracle.power >= sense_threshold then begin
            incr sensed;
            sum := !sum +. tx.Channel_oracle.power;
            if
              tx.Channel_oracle.power >= 1.0
              && not
                   (params.Channel.loss_prob > 0.0
                   && Rng.bernoulli rng params.Channel.loss_prob)
            then begin
              incr n_dec;
              if tx.Channel_oracle.power > !best_pow then begin
                best_pow := tx.Channel_oracle.power;
                best := slot
              end
            end
          end)
        txs;
      let out = [| Channel.Packed.silence |] in
      if !sensed > 0 then
        Channel.resolve_packed params ~touched:[| 0 |] ~n_touched:1 ~sum_power:[| !sum |]
          ~n_decodable:[| !n_dec |] ~best_power:[| !best_pow |] ~best_slot:[| !best |] ~out;
      let got =
        let p = out.(0) in
        if p = Channel.Packed.silence then Channel.Silence
        else if Channel.Packed.is_clear p then
          Channel.Clear (List.nth txs (Channel.Packed.slot p)).Channel_oracle.payload
        else Channel.Busy
      in
      Channel.equal Int.equal expected got)

let qtests =
  [
    prop_friis_monotonic;
    prop_resolve_never_invents_payload;
    prop_resolve_single_strong_is_clear;
    prop_resolve_packed_agrees;
  ]

let () =
  Alcotest.run "radio"
    [
      ( "propagation",
        [
          Alcotest.test_case "disk power" `Quick test_disk_power;
          Alcotest.test_case "friis power" `Quick test_friis_power;
          Alcotest.test_case "friis sense threshold" `Quick test_friis_sense_threshold;
          Alcotest.test_case "disk ranges" `Quick test_disk_ranges;
        ] );
      ( "channel",
        [
          Alcotest.test_case "silence" `Quick test_channel_silence;
          Alcotest.test_case "clear" `Quick test_channel_clear;
          Alcotest.test_case "collision" `Quick test_channel_busy_collision;
          Alcotest.test_case "weak signal" `Quick test_channel_busy_weak;
          Alcotest.test_case "weak interference (ideal)" `Quick
            test_channel_weak_interference_ideal;
          Alcotest.test_case "capture effect" `Quick test_channel_capture;
          Alcotest.test_case "loss" `Quick test_channel_loss;
          Alcotest.test_case "loss requires rng" `Quick test_channel_loss_requires_rng;
          Alcotest.test_case "is_activity" `Quick test_channel_is_activity;
        ] );
      ("properties", List.map (fun t -> QCheck_alcotest.to_alcotest ~long:false t) qtests);
    ]
