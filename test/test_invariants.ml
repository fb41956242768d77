(* Cross-cutting end-to-end invariants, property-tested over randomised
   scenarios.  These are the paper's safety theorems exercised through the
   whole stack (deployment → radio → engine → protocol):

   - Authenticity (Theorems 1–4): an honest node only ever delivers a
     message some device actually injected — the true message, or, under
     lying, possibly the liars' message; never a spliced third value.
   - Jamming can delay but never corrupt.
   - Engine accounting invariants. *)

(* 80 uniform nodes on an 8x8 map sometimes leave a node out of the
   source's reach; such draws must still run, not raise
   [Scenario.Unreachable] (the check draws no randomness, and the
   properties read honest deliveries only). *)
let small_spec ~seed ~protocol ~faults =
  {
    Scenario.default with
    map_w = 8.0;
    map_h = 8.0;
    deployment = Scenario.Uniform 80;
    radius = 2.5;
    message = Bitvec.of_string "1011";
    protocol;
    faults;
    heard_relay_limit = Some 4;
    cap = 400_000;
    seed;
    allow_unreachable = true;
  }

let deliveries result =
  let out = ref [] in
  Array.iteri
    (fun i delivered ->
      if result.Scenario.honest.(i) && i <> result.Scenario.source then begin
        match delivered with Some bits -> out := bits :: !out | None -> ()
      end)
    result.Scenario.engine.Engine.delivered;
  !out

let prop_nw_lying_never_splices =
  QCheck.Test.make ~name:"NW under lying: every delivery is the true or the fake message"
    ~count:12
    QCheck.(pair (int_bound 10_000) (int_range 0 30))
    (fun (seed, liar_pct) ->
      let spec =
        small_spec ~seed
          ~protocol:(Scenario.Neighbor_watch { votes = 1 })
          ~faults:(if liar_pct = 0 then Scenario.No_faults
                   else Scenario.Lying (float_of_int liar_pct /. 100.0))
      in
      let result = Scenario.run spec in
      let fake = Scenario.fake_message spec.Scenario.message in
      List.for_all
        (fun bits -> Bitvec.equal bits spec.Scenario.message || Bitvec.equal bits fake)
        (deliveries result))

let prop_nw_jamming_never_corrupts =
  QCheck.Test.make ~name:"NW under jamming: every delivery is the true message" ~count:10
    QCheck.(pair (int_bound 10_000) (int_range 0 100))
    (fun (seed, budget) ->
      let spec =
        small_spec ~seed
          ~protocol:(Scenario.Neighbor_watch { votes = 1 })
          ~faults:(Scenario.Jamming { fraction = 0.1; budget; probability = 0.2 })
      in
      let result = Scenario.run spec in
      List.for_all
        (fun bits -> Bitvec.equal bits spec.Scenario.message)
        (deliveries result))

let prop_two_voting_subset_of_single =
  QCheck.Test.make ~name:"2-voting delivers a subset: completion never exceeds 1-voting"
    ~count:8
    QCheck.(int_bound 10_000)
    (fun seed ->
      let run votes =
        Scenario.summarize
          (Scenario.run
             (small_spec ~seed ~protocol:(Scenario.Neighbor_watch { votes })
                ~faults:Scenario.No_faults))
      in
      (run 2).Scenario.delivered_any <= (run 1).Scenario.delivered_any)

let prop_mp_no_faults_all_correct =
  QCheck.Test.make ~name:"MultiPathRB without faults never delivers wrong bits" ~count:6
    QCheck.(int_bound 10_000)
    (fun seed ->
      let spec =
        small_spec ~seed ~protocol:(Scenario.Multi_path { tolerance = 1 })
          ~faults:Scenario.No_faults
      in
      let result = Scenario.run spec in
      List.for_all
        (fun bits -> Bitvec.equal bits spec.Scenario.message)
        (deliveries result))

let prop_engine_accounting =
  QCheck.Test.make ~name:"engine accounting: completion rounds within run, broadcasts positive"
    ~count:10
    QCheck.(int_bound 10_000)
    (fun seed ->
      let spec =
        small_spec ~seed
          ~protocol:(Scenario.Neighbor_watch { votes = 1 })
          ~faults:Scenario.No_faults
      in
      let result = Scenario.run spec in
      let e = result.Scenario.engine in
      let ok_completion =
        Array.for_all (fun r -> r >= -1 && r < e.Engine.rounds_used) e.Engine.completion_round
      in
      let ok_honest_delivery =
        Array.to_list e.Engine.completion_round
        |> List.mapi (fun i r -> (i, r))
        |> List.for_all (fun (i, r) ->
               (not result.Scenario.honest.(i)) || r < 0
               || e.Engine.delivered.(i) <> None)
      in
      let ok_broadcasts = Array.for_all (fun b -> b >= 0) e.Engine.broadcasts in
      ok_completion && ok_honest_delivery && ok_broadcasts)

let prop_determinism =
  QCheck.Test.make ~name:"identical specs give identical outcomes" ~count:6
    QCheck.(int_bound 10_000)
    (fun seed ->
      let spec =
        small_spec ~seed
          ~protocol:(Scenario.Neighbor_watch { votes = 1 })
          ~faults:(Scenario.Lying 0.1)
      in
      let a = Scenario.summarize (Scenario.run spec) in
      let b = Scenario.summarize (Scenario.run spec) in
      a = b)

(* Seed 5714 draws a deployment the source cannot fully reach, which
   used to raise [Scenario.Unreachable] out of the properties above. *)
let test_unreachable_draw_runs () =
  let spec =
    small_spec ~seed:5714 ~protocol:(Scenario.Neighbor_watch { votes = 1 })
      ~faults:Scenario.No_faults
  in
  let result = Scenario.run spec in
  let n = Topology.size result.Scenario.topology in
  Alcotest.(check bool) "some node out of reach" true
    (Graph.reachable_from (Topology.graph result.Scenario.topology) result.Scenario.source < n);
  Alcotest.(check bool) "every delivery is the true message" true
    (List.for_all (fun bits -> Bitvec.equal bits spec.Scenario.message) (deliveries result))

let qtests =
  [
    prop_nw_lying_never_splices;
    prop_nw_jamming_never_corrupts;
    prop_two_voting_subset_of_single;
    prop_mp_no_faults_all_correct;
    prop_engine_accounting;
    prop_determinism;
  ]

let () =
  Alcotest.run "invariants"
    [
      ( "end-to-end",
        List.map (fun t -> QCheck_alcotest.to_alcotest ~long:false t) qtests
        @ [
            Alcotest.test_case "unreachable draw at seed 5714 runs" `Quick
              test_unreachable_draw_runs;
          ] );
    ]
