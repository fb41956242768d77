(* Dense/sparse engine equivalence.

   The wakeup-driven sparse loop is only allowed to exist because it is
   byte-identical to the dense reference: same delivered bits, same
   completion rounds, same broadcast counts, same stop round, and the same
   round-by-round channel trace (skipped rounds appearing as the
   all-silent digests they are).  This suite drives both loops over the
   full protocol x fault-model matrix plus a lossy-channel case; a QCheck
   property does the same over randomized scenarios. *)

let small_spec ~protocol ~faults ~seed ~n =
  (* 8x8 up to 50 nodes, then grown to keep the density of 50 nodes on 8x8. *)
  let side = 8.0 *. sqrt (float_of_int (max n 50) /. 50.0) in
  {
    Scenario.default with
    Scenario.map_w = side;
    map_h = side;
    deployment = Scenario.Uniform n;
    radius = 4.0;
    message = Bitvec.of_string "101";
    protocol;
    faults;
    cap = 3_000;
    (* Random 25-node deployments on an 8x8 map do occasionally strand a
       node; partial coverage is fine here — equivalence, not delivery,
       is the property under test. *)
    allow_unreachable = true;
    seed;
  }

let bits =
  Alcotest.testable (fun fmt b -> Format.pp_print_string fmt (Bitvec.to_string b)) Bitvec.equal

let check_same_engine name label (d : Engine.result) (s : Engine.result) =
  let check what = Alcotest.(check what) in
  check Alcotest.int (name ^ ": rounds_used " ^ label) d.Engine.rounds_used s.Engine.rounds_used;
  check Alcotest.bool (name ^ ": hit_cap " ^ label) d.Engine.hit_cap s.Engine.hit_cap;
  check
    Alcotest.(array int)
    (name ^ ": broadcasts " ^ label)
    d.Engine.broadcasts s.Engine.broadcasts;
  check
    Alcotest.(array int)
    (name ^ ": completion rounds " ^ label)
    d.Engine.completion_round s.Engine.completion_round;
  check
    Alcotest.(array (option bits))
    (name ^ ": delivered bits " ^ label)
    d.Engine.delivered s.Engine.delivered

let check_same_results name label (a : Scenario.result) (b : Scenario.result) =
  check_same_engine name label a.Scenario.engine b.Scenario.engine

let check_same_trace name label ref_trace trace =
  match Determinism.diff ref_trace trace with
  | Determinism.Deterministic _ -> ()
  | Determinism.Diverged _ as o ->
    Alcotest.failf "%s: %s traces differ: %s" name label (Determinism.outcome_to_string o)

(* Dense is the reference; the sparse run must match it in trace and in
   every result field. *)
let check_equivalent name spec =
  let dense_trace, dense = Determinism.capture_spec ~mode:`Dense spec in
  let sparse_trace, sparse = Determinism.capture_spec ~mode:`Sparse spec in
  check_same_trace name "dense/sparse" dense_trace sparse_trace;
  check_same_results name "dense/sparse" dense sparse

let protocols =
  [
    ("nw1", Scenario.Neighbor_watch { votes = 1 });
    ("nw2", Scenario.Neighbor_watch { votes = 2 });
    ("mp1", Scenario.Multi_path { tolerance = 1 });
    ("epi", Scenario.Epidemic);
    ("cpa1", Scenario.Certified { tolerance = 1 });
  ]

let fault_models =
  [
    ("honest", Scenario.No_faults);
    ("crash", Scenario.Crash 0.2);
    ("jam", Scenario.Jamming { fraction = 0.1; budget = 5; probability = 0.5 });
    ("lying", Scenario.Lying 0.15);
  ]

let matrix_case (pname, protocol) (fname, faults) =
  let name = pname ^ "/" ^ fname in
  Alcotest.test_case name `Quick (fun () ->
      let seed = String.fold_left (fun h c -> (h * 131) + Char.code c) 7 name land 0xFFFF in
      check_equivalent name (small_spec ~protocol ~faults ~seed ~n:50))

(* The sparse loop visits machines through per-round word sets of 62 ids
   each; n = 50 fits in one word.  These sizes are not multiples of 62, so
   every drain crosses word boundaries and ends on a partial word. *)
let multi_word_sizes = [ 150; 187; 163; 200; 155 ]

let multi_word_case i (pname, protocol) =
  let n = List.nth multi_word_sizes i in
  let name = Printf.sprintf "%s/n=%d" pname n in
  Alcotest.test_case name `Quick (fun () ->
      let seed = String.fold_left (fun h c -> (h * 131) + Char.code c) 13 name land 0xFFFF in
      check_equivalent name (small_spec ~protocol ~faults:(Scenario.Lying 0.1) ~seed ~n))

(* Packed vs boxed observation path: [Engine.boxed_machine] strips every
   machine's packed observer, forcing the engine's variant-observation
   bridge.  Both paths must be byte-identical per protocol per engine
   mode — the packed encoding is an optimization, never a semantic. *)
let packed_modes = [ ("dense", `Dense); ("sparse", `Sparse) ]

let packed_case (pname, protocol) (mname, mode) =
  let name = pname ^ "/" ^ mname in
  Alcotest.test_case name `Quick (fun () ->
      let seed = String.fold_left (fun h c -> (h * 131) + Char.code c) 11 name land 0xFFFF in
      let spec = small_spec ~protocol ~faults:(Scenario.Lying 0.15) ~seed ~n:50 in
      let packed_trace, packed = Determinism.capture_spec ~mode spec in
      let boxed_trace, boxed = Determinism.capture_spec ~mode ~boxed:true spec in
      check_same_trace name "packed/boxed" packed_trace boxed_trace;
      check_same_results name "packed/boxed" packed boxed)

(* Loss draws happen during Phase-1 fan-out, so the CSR link order and the
   restriction of fan-out to scheduled transmitters must not perturb the
   RNG stream. *)
let test_lossy_channel () =
  let spec =
    {
      (small_spec ~protocol:(Scenario.Neighbor_watch { votes = 1 }) ~faults:Scenario.No_faults
         ~seed:7 ~n:50)
      with
      Scenario.channel = Channel.realistic;
    }
  in
  check_equivalent "nw1/lossy" spec

(* NeighborWatchRB assembled from its public constructors, for paths
   [Scenario.run] never takes.  [make ctx rng source i] builds node [i]'s
   machine, or returns [None] for a non-NW device (jammer), which is then
   built from [rng] as well; each engine mode gets a fresh context and a
   fresh rng from the same seed. *)
let nw_direct ~config ~seed ~make mode =
  let n = 150 in
  let deployment = Deployment.uniform (Rng.create seed) ~n ~width:10.0 ~height:10.0 in
  let topology = Topology.build deployment (Propagation.friis config.Neighbor_watch.radius) in
  let source = Deployment.center_node deployment in
  let ctx = Neighbor_watch.make_ctx config ~topology ~source in
  let rng = Rng.create (seed + 1) in
  let machines = Array.init n (make ctx rng source) in
  let waiters = Array.init n (fun i -> i <> source && Option.is_some machines.(i)) in
  let machines =
    Array.map
      (function
        | Some m -> m
        | None ->
          Jammer.veto_jammer ~rng:(Rng.split rng) ~budget:(Budget.create 1_000) ~probability:0.2)
      machines
  in
  let cycle_rounds =
    Schedule.cycle (Neighbor_watch.schedule ctx) * Schedule.rounds_per_interval
  in
  let tap, finish = Determinism.collector () in
  let result =
    Engine.run ~mode ~tap ~idle_stop:((3 * cycle_rounds) + 64) ~topology ~machines ~waiters
      ~cap:20_000 ()
  in
  (finish (), result)

let check_direct name run =
  let dense_trace, dense = run `Dense in
  let trace, result = run `Sparse in
  check_same_trace name "dense/sparse" dense_trace trace;
  check_same_engine name "dense/sparse" dense result

let message = Bitvec.of_string "1011"

(* The mobile hand-over: relays start an epoch already committed to a
   prefix of the message (every length from none to all of it), so their
   squares have bits to send before hearing anything.  [Mobile.run] runs
   this path in [`Sparse] only. *)
let test_initial_commit () =
  let config = Neighbor_watch.default_config ~radius:3.0 ~msg_len:(Bitvec.length message) in
  check_direct "nw/initial_commit"
    (nw_direct ~config ~seed:21 ~make:(fun ctx _ source i ->
         if i = source then Some (Neighbor_watch.machine ctx i (Neighbor_watch.Source message))
         else
           let initial_commit = Bitvec.sub message ~pos:0 ~len:(i mod (Bitvec.length message + 1)) in
           Some (Neighbor_watch.machine ~initial_commit ctx i Neighbor_watch.Relay)))

(* One node in twenty a veto jammer with budget to outlast the broadcast,
   against a square catch-up threshold of two failures: trigger (b) skips
   fire throughout the run (some 180 of them; a small budget would be
   spent before the broadcast leaves the source's square). *)
let test_catchup_under_veto_jam () =
  let config =
    {
      (Neighbor_watch.default_config ~radius:3.0 ~msg_len:(Bitvec.length message)) with
      Neighbor_watch.catchup_failures = 2;
    }
  in
  check_direct "nw/catchup_under_veto_jam"
    (nw_direct ~config ~seed:22 ~make:(fun ctx rng source i ->
         if i = source then Some (Neighbor_watch.machine ctx i (Neighbor_watch.Source message))
         else if Rng.int rng 20 = 0 then None
         else Some (Neighbor_watch.machine ctx i Neighbor_watch.Relay)))

(* Randomized scenarios: any protocol, any fault model, lossy or ideal
   channel, arbitrary seed and deployment size. *)
let prop_random_scenarios =
  QCheck.Test.make ~name:"all engine modes byte-identical on random scenarios" ~count:12
    QCheck.(
      quad (int_bound 100_000) (int_range 0 (List.length protocols - 1))
        (int_range 0 (List.length fault_models - 1))
        (int_range 25 200))
    (fun (seed, p, f, n) ->
      let pname, protocol = List.nth protocols p in
      let fname, faults = List.nth fault_models f in
      let spec = small_spec ~protocol ~faults ~seed ~n in
      let spec =
        if seed mod 2 = 0 then { spec with Scenario.channel = Channel.realistic } else spec
      in
      check_equivalent (Printf.sprintf "%s/%s seed %d n %d" pname fname seed n) spec;
      true)

let () =
  Alcotest.run "equivalence"
    [
      ( "protocol x fault matrix",
        List.concat_map (fun p -> List.map (matrix_case p) fault_models) protocols );
      ("multi-word node counts", List.mapi multi_word_case protocols);
      ( "packed vs boxed observations",
        List.concat_map (fun p -> List.map (packed_case p) packed_modes) protocols );
      ("lossy channel", [ Alcotest.test_case "nw1 under loss" `Quick test_lossy_channel ]);
      ( "direct NW assembly",
        [
          Alcotest.test_case "initial_commit hand-over" `Quick test_initial_commit;
          Alcotest.test_case "catch-up (b) under veto jam" `Quick test_catchup_under_veto_jam;
        ] );
      ( "properties",
        List.map
          (fun t -> QCheck_alcotest.to_alcotest ~long:false t)
          [ prop_random_scenarios ] );
    ]
