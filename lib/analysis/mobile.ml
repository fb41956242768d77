type config = {
  map : float;
  nodes : int;
  radius : float;
  message : Bitvec.t;
  epoch_rounds : int;
  max_epochs : int;
  model : Mobility.model;
  liar_fraction : float;
  seed : int;
}

let default =
  {
    map = 12.0;
    nodes = 200;
    radius = 3.0;
    message = Bitvec.of_string "1011";
    epoch_rounds = 3000;
    max_epochs = 12;
    model = { Mobility.speed = 0.002; pause = 200 };
    liar_fraction = 0.0;
    seed = 42;
  }

(* Sparse deployments, so the benchmark shows the interesting regime:
   static partitions that movement ferries the message across. *)
let scaled_config = function
  | Experiment.Quick -> { default with nodes = 60; map = 16.0; epoch_rounds = 3000; max_epochs = 20 }
  | Experiment.Paper -> { default with nodes = 240; map = 32.0; epoch_rounds = 4000; max_epochs = 30 }

type result = {
  epochs_used : int;
  rounds_total : int;
  active_rounds : int;
  completion_rate : float;
  correct_rate : float;
  mean_displacement : float;
}

let run config =
  let rng = Rng.create config.seed in
  let deploy_rng = Rng.split rng in
  let liar_rng = Rng.split rng in
  let initial =
    Deployment.uniform deploy_rng ~n:config.nodes ~width:config.map ~height:config.map
  in
  let mobility = Mobility.create (Rng.split rng) config.model initial in
  let n = config.nodes in
  let source = Deployment.center_node initial in
  let liars = Array.make n false in
  let liar_count = int_of_float (Float.round (config.liar_fraction *. float_of_int n)) in
  List.iter
    (fun i -> if i <> source then liars.(i) <- true)
    (Rng.sample_without_replacement liar_rng (min liar_count (n - 1)) n);
  let fake = Scenario.fake_message config.message in
  let msg_len = Bitvec.length config.message in
  (* Committed prefixes carried across epochs. *)
  let carried = Array.make n Bitvec.empty in
  let epochs_used = ref 0 in
  let rounds_total = ref 0 in
  let active_rounds = ref 0 in
  let all_done = ref false in
  while (not !all_done) && !epochs_used < config.max_epochs do
    incr epochs_used;
    let deployment = Mobility.deployment mobility in
    let topology = Topology.build deployment (Propagation.friis config.radius) in
    let nw_config = Neighbor_watch.default_config ~radius:config.radius ~msg_len in
    let ctx = Neighbor_watch.make_ctx nw_config ~topology ~source in
    (* After re-clustering, a square must re-stream its whole committed
       prefix (its new neighbours may lack the early bits), so an epoch
       shorter than about (L + 2) schedule cycles can never advance the
       frontier; clamp to that minimum. *)
    let cycle_rounds =
      Schedule.cycle (Neighbor_watch.schedule ctx) * Schedule.rounds_per_interval
    in
    let epoch_rounds = max config.epoch_rounds ((msg_len + 2) * cycle_rounds) in
    let machines =
      Array.init n (fun i ->
          if i = source then Neighbor_watch.machine ctx i (Neighbor_watch.Source config.message)
          else if liars.(i) then Neighbor_watch.machine ctx i (Neighbor_watch.Liar fake)
          else Neighbor_watch.machine ~initial_commit:carried.(i) ctx i Neighbor_watch.Relay)
    in
    let waiters = Array.init n (fun i -> (not liars.(i)) && i <> source) in
    let epoch =
      Engine.run ~mode:`Sparse ~idle_stop:(3 * cycle_rounds)
        ~listeners:(Neighbor_watch.listeners ctx) ~topology ~machines ~waiters ~cap:epoch_rounds ()
    in
    rounds_total := !rounds_total + epoch.Engine.rounds_used;
    active_rounds := !active_rounds + epoch.Engine.active_rounds;
    for i = 0 to n - 1 do
      if (not liars.(i)) && i <> source then carried.(i) <- Neighbor_watch.committed_bits ctx i
    done;
    all_done :=
      Array.for_all
        (fun x -> x)
        (Array.mapi
           (fun i w -> (not w) || Bitvec.length carried.(i) >= msg_len)
           waiters);
    if not !all_done then Mobility.advance mobility ~rounds:epoch.Engine.rounds_used
  done;
  let honest_total = ref 0 and completed = ref 0 and correct = ref 0 in
  for i = 0 to n - 1 do
    if (not liars.(i)) && i <> source then begin
      incr honest_total;
      if Bitvec.length carried.(i) >= msg_len then begin
        incr completed;
        if Bitvec.equal carried.(i) config.message then incr correct
      end
    end
  done;
  let ratio a b = if b = 0 then 1.0 else float_of_int a /. float_of_int b in
  {
    epochs_used = !epochs_used;
    rounds_total = !rounds_total;
    active_rounds = !active_rounds;
    completion_rate = ratio !completed !honest_total;
    correct_rate = ratio !correct !honest_total;
    mean_displacement = Mobility.displacement mobility initial;
  }

let job =
  Experiment.job ~id:"mobile"
    ~title:"mobile NeighborWatchRB (random waypoint, epoch-based)"
    ~columns:[ "speed"; "epochs"; "rounds"; "completed"; "correct"; "mean travel" ]
    (fun scale ->
      let config = scaled_config scale in
      List.map
        (fun speed ->
          Experiment.single
            (fun () ->
              let result = run { config with model = { config.model with Mobility.speed } } in
              ( result,
                { Experiment.rounds = result.rounds_total; active_rounds = result.active_rounds }
              ))
            (fun result ->
              Experiment.row
                ~values:
                  [
                    ("speed", Json.Float speed);
                    ("epochs", Json.Int result.epochs_used);
                    ("rounds", Json.Int result.rounds_total);
                    ("completion_rate", Json.Float result.completion_rate);
                    ("correct_rate", Json.Float result.correct_rate);
                  ]
                [
                  Printf.sprintf "%g/round" speed;
                  Table.cell_i result.epochs_used;
                  Table.cell_i result.rounds_total;
                  Table.cell_pct result.completion_rate;
                  Table.cell_pct result.correct_rate;
                  Table.cell_f ~decimals:2 result.mean_displacement;
                ]))
        [ 0.0; 0.003; 0.01 ])
