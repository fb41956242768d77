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
      let tap, finish = Determinism.collector () in
      let wrap ~listeners:_ machines = Array.map Engine.boxed_machine machines in
      let boxed = Scenario.run ~tap ~mode ~wrap spec in
      check_same_trace name "packed/boxed" packed_trace (finish ());
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

(* --- collision-count fan-in ---------------------------------------------

   On a collision-only channel the sparse loop resolves from
   [Graph.csr]'s word entries by counting coverage, while the dense loop
   always sums powers per link.  So a Dense-vs-Sparse trace diff checks
   the count rule against the float rule, on topologies chosen to sit on
   the rule's edges. *)

(* Every node alone in turn, then every ordered pair, then pseudo-random
   subsets of about one node in eight. *)
let pattern n r i =
  if r < n then i = r
  else if r < n + (n * n) then
    let q = r - n in
    i = q / n || i = q mod n
  else ((i * 73_856_093) lxor (r * 19_349_663)) land 7 = 0

let pattern_rounds n = n + (n * n) + 200

(* Transmit by [pattern], poll every round, observe nothing: the trace
   digests record what each radio resolved. *)
let chatter n i =
  {
    Engine.act = (fun r -> if pattern n r i then Engine.Transmit i else Engine.Silent);
    observe = (fun _ _ -> ());
    observe_packed = Some (fun _ _ _ -> ());
    delivered = (fun () -> None);
    next_active = Engine.always_active;
  }

let chatter_trace ?rng ?(channel = Channel.ideal) topology mode =
  let n = Topology.size topology in
  let tap, finish = Determinism.collector () in
  let rng = Option.map Rng.create rng in
  let result =
    Engine.run ~mode ?rng ~channel ~tap ~topology ~machines:(Array.init n (chatter n))
      ~waiters:(Array.make n true) ~cap:(pattern_rounds n) ()
  in
  (finish (), result)

(* Dense vs Sparse over the chatter pattern; returns the trace. *)
let check_chatter ?rng ?channel name topology =
  let dense_trace, dense = chatter_trace ?rng ?channel topology `Dense in
  let sparse_trace, sparse = chatter_trace ?rng ?channel topology `Sparse in
  check_same_trace name "dense/sparse" dense_trace sparse_trace;
  check_same_engine name "dense/sparse" dense sparse;
  sparse_trace

(* The round in which exactly [a] and [b] transmit ([a = b]: [a] alone). *)
let pair_round n a b = if a = b then a else n + (a * n) + b

let fingerprint_at (trace : Determinism.trace) ~round ~node =
  trace.(round).Engine.observations.(node)

(* A complete graph on six nodes at power 1.0 except the link node 0
   senses node 1 by. *)
let complete_with ~power01 =
  let n = 6 in
  let rows =
    Array.init n (fun i ->
        Array.of_list
          (List.filter_map
             (fun j -> if j = i then None else Some (j, if i = 0 && j = 1 then power01 else 1.0))
             (List.init n Fun.id)))
  in
  let nodes = Array.init n (fun i -> Node.make i (Point.make (float_of_int i) 0.0)) in
  Topology.synthetic ~family:"complete"
    { Deployment.width = float_of_int n; height = 1.0; nodes }
    (Graph.make rows)

(* A 1e-13 link beside a decodable one: the float rule calls the 1e-13
   interference zero (tolerance 1e-12) and decodes, the count rule would
   read busy. *)
let weak_link () = complete_with ~power01:1e-13

(* A 10^17 : 1 spread: 10^17 + 1 rounds to 10^17, so the float rule decodes
   node 1 over node 2 and the count rule would read busy. *)
let wide_spread () = complete_with ~power01:1e17

(* [n] nodes uniform on a [side]-square under Friis R = 4, with node
   [twin + 1] moved onto node [twin] when given. *)
let friis_map ?twin ~seed ~n ~side () =
  let deployment = Deployment.uniform (Rng.create seed) ~n ~width:side ~height:side in
  let deployment =
    match twin with
    | None -> deployment
    | Some a ->
      let nodes = Array.copy deployment.Deployment.nodes in
      nodes.(a + 1) <- Node.make (a + 1) nodes.(a).Node.pos;
      { deployment with Deployment.nodes }
  in
  Topology.build deployment (Propagation.friis 4.0)

let has_words topology = Option.is_some (Graph.csr (Topology.graph topology)).Graph.words

(* The gate and the guard recomputed from the sensed rows. *)
let gate_and_guard topology =
  let { Graph.in_off; in_peer; in_pow; _ } = Topology.graph topology in
  let n = Topology.size topology in
  let words_of = Array.make n [] in
  let links = ref 0 and d = ref 0 and p_min = ref infinity and p_max = ref 0.0 in
  for receiver = 0 to n - 1 do
    d := max !d (in_off.(receiver + 1) - in_off.(receiver));
    for k = in_off.(receiver) to in_off.(receiver + 1) - 1 do
      let peer = in_peer.(k) and power = in_pow.(k) in
      incr links;
      words_of.(peer) <- (receiver / Bitvec.bits_per_word) :: words_of.(peer);
      p_min := Float.min !p_min power;
      if power < infinity then p_max := Float.max !p_max power
    done
  done;
  let entries =
    Array.fold_left (fun acc ws -> acc + List.length (List.sort_uniq Int.compare ws)) 0 words_of
  in
  let gate = 2 * entries <= !links in
  let guard =
    !p_min > 1e-12 +. (float_of_int ((!d * !d) + 2) *. !p_max *. epsilon_float)
  in
  (gate, guard)

(* Built word entries must restate the link rows: per transmitter, the
   sensed masks are its receivers and the decodable masks those at a
   finite power of at least 1.0. *)
let check_entries_match_links name topology =
  let { Graph.out_off; out_rcv; out_pow; words } = Graph.csr (Topology.graph topology) in
  match words with
  | None -> Alcotest.failf "%s: no word entries" name
  | Some { Graph.word_off; word_idx; word_sensed; word_dec } ->
    for i = 0 to Array.length out_off - 2 do
      let from_links keep =
        List.sort Int.compare
          (List.filter_map
             (fun k -> if keep out_pow.(k) then Some out_rcv.(k) else None)
             (List.init (out_off.(i + 1) - out_off.(i)) (fun j -> out_off.(i) + j)))
      in
      let from_words masks =
        List.sort Int.compare
          (List.concat_map
             (fun e ->
               List.filter_map
                 (fun b ->
                   if (masks.(e) lsr b) land 1 = 1 then
                     Some ((word_idx.(e) * Bitvec.bits_per_word) + b)
                   else None)
                 (List.init Bitvec.bits_per_word Fun.id))
             (List.init (word_off.(i + 1) - word_off.(i)) (fun j -> word_off.(i) + j)))
      in
      Alcotest.(check (list int))
        (Printf.sprintf "%s: node %d sensed" name i)
        (from_links (fun _ -> true))
        (from_words word_sensed);
      Alcotest.(check (list int))
        (Printf.sprintf "%s: node %d decodable" name i)
        (from_links (fun p -> p >= 1.0 && p < infinity))
        (from_words word_dec)
    done

let test_word_rows_built_when_due () =
  let dense = friis_map ~seed:3 ~n:40 ~side:4.0 () in
  let expander = Graphs.expander (Rng.create 5) ~n:1000 ~degree:8 in
  List.iter
    (fun (name, topology, expect_gate, expect_guard) ->
      let gate, guard = gate_and_guard topology in
      Alcotest.(check (pair bool bool)) (name ^ ": gate and guard") (expect_gate, expect_guard)
        (gate, guard);
      Alcotest.(check bool) (name ^ ": word entries built") (gate && guard) (has_words topology))
    [
      ("dense Friis map", dense, true, true);
      ("expander", expander, false, true);
      ("1e-13 link", weak_link (), true, false);
      ("1e17 spread", wide_spread (), true, false);
    ];
  check_entries_match_links "dense Friis map" dense

(* Co-located Friis nodes sense each other at infinite power.  Alone, the
   float rule reads busy (infinity minus infinity is NaN); so must the
   count rule, which keeps infinite links out of the decodable mask. *)
let test_colocated_pair () =
  let n = 40 and twin = 10 in
  let topology = friis_map ~twin ~seed:3 ~n ~side:4.0 () in
  Alcotest.(check bool) "word entries built" true (has_words topology);
  let { Graph.in_off; in_peer; in_pow; _ } = Topology.graph topology in
  Alcotest.(check bool) "the pair links at infinite power" true
    (List.exists
       (fun k -> in_peer.(k) = twin && in_pow.(k) = infinity)
       (List.init (in_off.(twin + 2) - in_off.(twin + 1)) (fun k -> in_off.(twin + 1) + k)));
  let trace = check_chatter "co-located pair" topology in
  let alone = pair_round n twin twin in
  Alcotest.(check int) "the twin hears a lone infinite link as busy" 1
    (fingerprint_at trace ~round:alone ~node:(twin + 1));
  Alcotest.(check bool) "a third node decodes it" true
    (Array.exists (fun fp -> fp >= 2) trace.(alone).Engine.observations)

(* The guarded topologies keep the link walk, so node 0 decodes node 1
   over node 2 in both loops. *)
let test_guarded_topology (name, make) () =
  let topology = make () in
  Alcotest.(check bool) (name ^ ": no word entries") false (has_words topology);
  let trace = check_chatter name topology in
  Alcotest.(check bool) (name ^ ": node 0 decodes under the float rule") true
    (fingerprint_at trace ~round:(pair_round 6 1 2) ~node:0 >= 2)

(* Capture and loss need the power sums: a realistic channel over a
   topology with word entries still takes the link walk. *)
let test_realistic_dense_map () =
  let topology = friis_map ~seed:4 ~n:40 ~side:4.0 () in
  Alcotest.(check bool) "word entries built" true (has_words topology);
  ignore (check_chatter ~rng:11 ~channel:Channel.realistic "realistic" topology)

(* Receivers on both sides of the first two word boundaries. *)
let test_word_boundaries () =
  let n = 130 in
  let topology = friis_map ~seed:6 ~n ~side:3.5 () in
  Alcotest.(check bool) "word entries built" true (has_words topology);
  let trace = check_chatter "word boundaries" topology in
  List.iter
    (fun node ->
      let seen p = Array.exists (fun d -> p d.Engine.observations.(node)) trace in
      Alcotest.(check bool) (Printf.sprintf "node %d decodes" node) true (seen (fun fp -> fp >= 2));
      Alcotest.(check bool)
        (Printf.sprintf "node %d reads busy" node)
        true
        (seen (fun fp -> fp = 1)))
    [ 61; 62; 123; 124 ]

(* --- listener sets ---------------------------------------------------

   NeighborWatchRB and MultiPathRB hand the sparse loop per-round listener
   sets, and a reached receiver outside them is not polled.  The contract
   behind that — observing anything outside the set changes nothing — is
   held here against the dense loop itself: a dense run whose every such
   observation is replaced by silence must equal the plain dense run. *)

let listens set i = (set.(i / Bitvec.bits_per_word) lsr (i mod Bitvec.bits_per_word)) land 1 = 1

(* Machine [i] with each observation at a round whose set leaves it out
   replaced by silence; [silenced] counts the replaced non-silent codes. *)
let silence_outside ~silenced listeners i (m : Msg.t Engine.machine) =
  let hears r = listens (listeners r) i in
  {
    m with
    Engine.observe =
      (fun r o ->
        if hears r then m.Engine.observe r o
        else begin
          if o <> Channel.Silence then incr silenced;
          m.Engine.observe r Channel.Silence
        end);
    observe_packed =
      Option.map
        (fun f r p slots ->
          if hears r then f r p slots
          else begin
            if p <> Channel.Packed.silence then incr silenced;
            f r Channel.Packed.silence slots
          end)
        m.Engine.observe_packed;
  }

let check_listener_oracle name spec =
  let plain_trace, plain = Determinism.capture_spec ~mode:`Dense spec in
  let silenced = ref 0 in
  let wrap ~listeners machines =
    match listeners with
    | Some l -> Array.mapi (silence_outside ~silenced l) machines
    | None -> Alcotest.failf "%s: no listener sets" name
  in
  let tap, finish = Determinism.collector () in
  let oracle = Scenario.run ~tap ~mode:`Dense ~wrap spec in
  Alcotest.(check bool) (name ^ ": some observation was silenced") true (!silenced > 0);
  check_same_trace name "dense/listeners-only dense" plain_trace (finish ());
  check_same_results name "dense/listeners-only dense" plain oracle

let listener_protocols =
  List.filter (fun (name, _) -> List.mem name [ "nw1"; "nw2"; "mp1" ]) protocols

let listener_faults =
  fault_models
  @ [ ("selective", Scenario.Selective_jam { fraction = 0.1; budget = 20; probability = 0.5 }) ]

let listener_case (pname, protocol) (fname, faults) (cname, channel) =
  let name = String.concat "/" [ pname; fname; cname ] in
  Alcotest.test_case name `Quick (fun () ->
      let seed = String.fold_left (fun h c -> (h * 131) + Char.code c) 17 name land 0xFFFF in
      check_listener_oracle name
        { (small_spec ~protocol ~faults ~seed ~n:100) with Scenario.channel })

let listener_cases =
  List.concat_map
    (fun p ->
      List.concat_map
        (fun f ->
          List.map (listener_case p f) [ ("ideal", Channel.ideal); ("realistic", Channel.realistic) ])
        listener_faults)
    listener_protocols

(* The jamming (seed, budget) pairs at which NeighborWatchRB delivers a
   fake message on test_invariants' spec (ROADMAP item 1): the oracle must
   agree with the plain run on those too. *)
let test_listener_oracle_fake_jam_pairs () =
  List.iter
    (fun (seed, budget) ->
      check_listener_oracle
        (Printf.sprintf "nw1 jam seed %d budget %d" seed budget)
        {
          Scenario.default with
          map_w = 8.0;
          map_h = 8.0;
          deployment = Scenario.Uniform 80;
          radius = 2.5;
          message = Bitvec.of_string "1011";
          faults = Scenario.Jamming { fraction = 0.1; budget; probability = 0.2 };
          heard_relay_limit = Some 4;
          cap = 400_000;
          seed;
          allow_unreachable = true;
        })
    [ (1456, 56); (3002, 70) ]

(* Dense vs Sparse where the filter skips many reached receivers: MP on a
   synthetic expander (no geometry; the schedule comes from the graph),
   and NW on a dense Friis map, average degree above 40, which also takes
   the collision-count fan-in. *)
let test_mp_expander_filter () =
  let spec =
    {
      (small_spec ~protocol:(Scenario.Multi_path { tolerance = 1 }) ~faults:Scenario.No_faults
         ~seed:5 ~n:50)
      with
      Scenario.deployment = Scenario.Expander { n = 120; degree = 6 };
      message = Bitvec.of_string "10";
      heard_relay_limit = Some 4;
      cap = 20_000;
    }
  in
  check_equivalent "mp1/expander" spec

let test_nw_dense_friis_filter () =
  let spec =
    {
      (small_spec ~protocol:(Scenario.Neighbor_watch { votes = 1 }) ~faults:(Scenario.Lying 0.05)
         ~seed:8 ~n:50)
      with
      Scenario.map_w = 9.0;
      map_h = 9.0;
      deployment = Scenario.Uniform 180;
      cap = 20_000;
    }
  in
  let topology = Scenario.topology spec in
  let degree = Graph.avg_degree (Topology.graph topology) in
  Alcotest.(check bool) (Printf.sprintf "average degree %.1f above 40" degree) true (degree > 40.0);
  Alcotest.(check bool) "word entries built" true (has_words topology);
  check_equivalent "nw1/dense Friis" spec

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
      ( "collision-count fan-in",
        [
          Alcotest.test_case "word entries built when gate and guard allow" `Quick
            test_word_rows_built_when_due;
          Alcotest.test_case "co-located Friis pair" `Quick test_colocated_pair;
          Alcotest.test_case "1e-13 link beside a decodable one" `Quick
            (test_guarded_topology ("1e-13 link", weak_link));
          Alcotest.test_case "1e17 power spread" `Quick
            (test_guarded_topology ("1e17 spread", wide_spread));
          Alcotest.test_case "realistic channel on a dense map" `Quick test_realistic_dense_map;
          Alcotest.test_case "receivers at word boundaries" `Quick test_word_boundaries;
        ] );
      ("listener contract", listener_cases);
      ( "listener filter",
        [
          Alcotest.test_case "oracle on NW's fake-delivering jam pairs" `Quick
            test_listener_oracle_fake_jam_pairs;
          Alcotest.test_case "mp1 on an expander" `Quick test_mp_expander_filter;
          Alcotest.test_case "nw1 on a dense Friis map" `Quick test_nw_dense_friis_filter;
        ] );
      ( "properties",
        List.map
          (fun t -> QCheck_alcotest.to_alcotest ~long:false t)
          [ prop_random_scenarios ] );
    ]
