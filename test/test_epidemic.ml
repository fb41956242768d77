(* Tests for the epidemic flooding baseline: speed, lack of fault
   tolerance, rebroadcast bounds. *)

let message = Bitvec.of_string "10110"

let run ?(seed = 1) ?(faults = Scenario.No_faults) ?(n = 150) ?(map = 10.0) () =
  let spec =
    {
      Scenario.default with
      map_w = map;
      map_h = map;
      deployment = Scenario.Uniform n;
      radius = 2.0;
      message;
      protocol = Scenario.Epidemic;
      faults;
      seed;
    }
  in
  Scenario.run spec

let test_floods_everyone () =
  let s = Scenario.summarize (run ()) in
  Alcotest.(check bool) "completion >= 99%" true (s.Scenario.completion_rate >= 0.99);
  Alcotest.(check (float 1e-9)) "correct without faults" 1.0 s.Scenario.correct_of_delivered

let test_faster_than_neighbor_watch () =
  let epi = Scenario.summarize (run ()) in
  let nw =
    Scenario.summarize
      (Scenario.run
         {
           Scenario.default with
           map_w = 10.0;
           map_h = 10.0;
           deployment = Scenario.Uniform 150;
           radius = 2.0;
           message;
           protocol = Scenario.Neighbor_watch { votes = 1 };
         })
  in
  Alcotest.(check bool) "epidemic is faster" true (epi.Scenario.rounds < nw.Scenario.rounds);
  let slowdown = float_of_int nw.Scenario.rounds /. float_of_int (max 1 epi.Scenario.rounds) in
  (* The paper reports ≈7.7x; under our shared TDMA MAC the ratio lands in
     the same small-constant band. *)
  Alcotest.(check bool)
    (Printf.sprintf "slowdown in band (got %.1f)" slowdown)
    true
    (slowdown >= 2.0 && slowdown <= 60.0)

let test_adopts_fake_messages () =
  (* No authentication: liars poison a visible fraction of nodes. *)
  let corrupted =
    List.exists
      (fun seed ->
        let s = Scenario.summarize (run ~faults:(Scenario.Lying 0.10) ~seed ()) in
        s.Scenario.delivered_correct < s.Scenario.delivered_any)
      [ 1; 2; 3 ]
  in
  Alcotest.(check bool) "epidemic adopts fakes" true corrupted

let test_repeats_bound_broadcasts () =
  let result = run () in
  Array.iter
    (fun count ->
      Alcotest.(check bool) "per-node broadcasts <= repeats" true
        (count <= Announcer.repeats))
    result.Scenario.engine.Engine.broadcasts

let test_crash_can_disconnect () =
  let s = Scenario.summarize (run ~faults:(Scenario.Crash 0.7) ~n:80 ()) in
  (* With 70% of 80 devices crashed the flood cannot blanket the map; the
     run must still terminate quickly via idle-stop. *)
  Alcotest.(check bool) "not everyone reached" true (s.Scenario.completion_rate < 1.0);
  Alcotest.(check bool) "terminates early" true (not s.Scenario.hit_cap)

let test_direct_api_machines () =
  let deployment = Deployment.grid ~width:5 ~height:5 in
  let topology = Topology.build deployment (Propagation.disk_linf 2.0) in
  let source = Deployment.center_node deployment in
  let ctx = Epidemic.make_ctx ~topology ~source in
  Alcotest.(check bool) "cycle bounded by nodes+1" true (Epidemic.cycle ctx <= 26);
  Alcotest.(check int) "cycle_rounds = 6 x cycle" (6 * Epidemic.cycle ctx)
    (Epidemic.cycle_rounds ctx);
  let machines =
    Array.init 25 (fun i ->
        if i = source then Epidemic.machine ctx i (Epidemic.Source message)
        else Epidemic.machine ctx i Epidemic.Relay)
  in
  let waiters = Array.init 25 (fun i -> i <> source) in
  let result =
    Engine.run ~idle_stop:(4 * Epidemic.cycle_rounds ctx) ~topology ~machines ~waiters
      ~cap:100_000 ()
  in
  Array.iteri
    (fun i delivered ->
      match delivered with
      | Some bits -> Alcotest.(check bool) "payload intact" true (Bitvec.equal bits message)
      | None -> Alcotest.fail (Printf.sprintf "node %d missed the flood" i))
    result.Engine.delivered

let () =
  Alcotest.run "epidemic"
    [
      ( "baseline",
        [
          Alcotest.test_case "floods everyone" `Quick test_floods_everyone;
          Alcotest.test_case "faster than NW" `Quick test_faster_than_neighbor_watch;
          Alcotest.test_case "adopts fake messages" `Quick test_adopts_fake_messages;
          Alcotest.test_case "repeats bound broadcasts" `Quick test_repeats_bound_broadcasts;
          Alcotest.test_case "crash can disconnect" `Quick test_crash_can_disconnect;
          Alcotest.test_case "direct API" `Quick test_direct_api_machines;
        ] );
    ]
