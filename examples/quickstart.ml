(* Quickstart: one authenticated broadcast, built from the core API
   directly (no experiment harness), so each moving part is visible:

     deployment -> radio -> topology -> protocol context -> machines -> engine

   The parameters come from the "quickstart" preset, so the scenario
   linter validates exactly this configuration.

   Run with: dune exec examples/quickstart.exe *)

let () =
  let spec = Scenario.preset_exn "quickstart" in

  (* 1. Deploy the devices uniformly at random (120 on a 10x10 map). *)
  let n = match spec.Scenario.deployment with Scenario.Uniform n -> n | _ -> assert false in
  let rng = Rng.create spec.Scenario.seed in
  let deployment =
    Deployment.uniform rng ~n ~width:spec.Scenario.map_w ~height:spec.Scenario.map_h
  in

  (* 2. Free-space radio with decode range R and carrier sensing beyond it
        (the WSNet-like model of the paper's simulations). *)
  let radio = Propagation.friis spec.Scenario.radius in
  let topology = Topology.build deployment radio in
  let graph = Topology.graph topology in
  Printf.printf "deployed %d devices, average degree %.1f, hop diameter %d\n"
    (Deployment.size deployment) (Graph.avg_degree graph)
    (Graph.hop_diameter_from graph (Deployment.center_node deployment));

  (* 3. The source sits at the centre and broadcasts four bits. *)
  let source = Deployment.center_node deployment in
  let message = spec.Scenario.message in

  (* 4. NeighborWatchRB context: R/3 squares, TDMA schedule, 1-voting. *)
  let config =
    Neighbor_watch.default_config ~radius:spec.Scenario.radius ~msg_len:(Bitvec.length message)
  in
  let ctx = Neighbor_watch.make_ctx config ~topology ~source in
  let machines =
    Array.init (Deployment.size deployment) (fun i ->
        if i = source then Neighbor_watch.machine ctx i (Neighbor_watch.Source message)
        else Neighbor_watch.machine ctx i Neighbor_watch.Relay)
  in

  (* 5. Run the synchronous round engine until everyone delivers (the
        sparse mode skips the rounds the TDMA schedule leaves silent). *)
  let waiters = Array.init (Deployment.size deployment) (fun i -> i <> source) in
  let result = Engine.run ~mode:`Sparse ~topology ~machines ~waiters ~cap:1_000_000 () in

  let delivered = Array.to_list result.Engine.delivered in
  let ok = List.length (List.filter (fun d -> d = Some message) delivered) in
  Printf.printf "message %s delivered by %d/%d devices in %d rounds (%d broadcasts)\n"
    (Bitvec.to_string message) ok (Deployment.size deployment) result.Engine.rounds_used
    (Array.fold_left ( + ) 0 result.Engine.broadcasts);
  let slowest =
    Array.fold_left max 0 result.Engine.completion_round
  in
  Printf.printf "last device completed at round %d\n" slowest
