type protocol =
  | Neighbor_watch of { votes : int }
  | Multi_path of { tolerance : int }
  | Epidemic
  | Certified of { tolerance : int }

type deployment_kind =
  | Uniform of int
  | Clustered of { n : int; clusters : int; stddev : float }
  | Grid
  | Grid_holes of { width : int; height : int; holes : int }
  | Corridor of { rooms : int; room_w : int; room_h : int; hall_len : int }
  | Triangulated of { cols : int; rows : int; jitter : float }
  | Expander of { n : int; degree : int }
  | Lattice of { width : int; height : int }

(* The geometric kinds deploy on the [map_w × map_h] square and derive
   their edges from the radio model; everything else is an explicit graph
   family from {!Graphs}, for which map size, radio and radius are
   ignored. *)
let geometric_deployment = function
  | Uniform _ | Clustered _ | Grid -> true
  | Grid_holes _ | Corridor _ | Triangulated _ | Expander _ | Lattice _ -> false

type radio = Friis | Disk_l2 | Disk_linf

type faults =
  | No_faults
  | Crash of float
  | Jamming of { fraction : float; budget : int; probability : float }
  | Lying of float
  | Selective_jam of { fraction : float; budget : int; probability : float }

type spec = {
  map_w : float;
  map_h : float;
  deployment : deployment_kind;
  radio : radio;
  radius : float;
  channel : Channel.params;
  message : Bitvec.t;
  protocol : protocol;
  faults : faults;
  cap : int;
  heard_relay_limit : int option;
  square_side : float option;  (* NeighborWatchRB square-size override *)
  pipelined : bool;  (* false = store-and-forward ablation *)
  allow_unreachable : bool;  (* accept sources that cannot cover the deployment *)
  seed : int;
}

let default =
  {
    map_w = 20.0;
    map_h = 20.0;
    deployment = Uniform 600;
    radio = Friis;
    radius = 4.0;
    channel = Channel.ideal;
    message = Bitvec.of_string "1011";
    protocol = Neighbor_watch { votes = 1 };
    faults = No_faults;
    cap = 2_000_000;
    heard_relay_limit = None;
    square_side = None;
    pipelined = true;
    allow_unreachable = false;
    seed = 42;
  }

exception Unreachable of { unreachable : int; total : int }

let () =
  Printexc.register_printer (function
    | Unreachable { unreachable; total } ->
      Some
        (Printf.sprintf
           "Scenario.Unreachable: the source cannot reach %d of %d nodes; a run would \
            silently report them undelivered (set allow_unreachable = true to accept \
            partial coverage)"
           unreachable total)
    | _ -> None)

type result = {
  spec : spec;
  topology : Topology.t;
  source : Node.id;
  honest : bool array;
  fake : Bitvec.t option;
  engine : Engine.result;
}

let fake_message message = Bitvec.init (Bitvec.length message) (fun i -> not (Bitvec.get message i))

let build_deployment rng spec =
  match spec.deployment with
  | Uniform n -> Deployment.uniform rng ~n ~width:spec.map_w ~height:spec.map_h
  | Clustered { n; clusters; stddev } ->
    Deployment.clustered rng ~n ~clusters ~stddev ~width:spec.map_w ~height:spec.map_h
  | Grid ->
    Deployment.grid
      ~width:(1 + int_of_float spec.map_w)
      ~height:(1 + int_of_float spec.map_h)
  | Grid_holes _ | Corridor _ | Triangulated _ | Expander _ | Lattice _ ->
    invalid_arg "Scenario.build_deployment: synthetic kinds build whole topologies"

let build_propagation spec =
  match spec.radio with
  | Friis -> Propagation.friis spec.radius
  | Disk_l2 -> Propagation.disk_l2 spec.radius
  | Disk_linf -> Propagation.disk_linf spec.radius

let build_topology rng spec =
  match spec.deployment with
  | Uniform _ | Clustered _ | Grid -> Topology.build (build_deployment rng spec) (build_propagation spec)
  | Grid_holes { width; height; holes } -> Graphs.grid_with_holes rng ~width ~height ~holes
  | Corridor { rooms; room_w; room_h; hall_len } ->
    Graphs.corridor ~rooms ~room_w ~room_h ~hall_len
  | Triangulated { cols; rows; jitter } -> Graphs.triangulation rng ~cols ~rows ~jitter
  | Expander { n; degree } -> Graphs.expander rng ~n ~degree
  | Lattice { width; height } -> Graphs.lattice ~width ~height

(* Draw the Byzantine set: a random fraction of the non-source nodes. *)
let pick_byzantine rng ~n ~source ~fraction =
  let eligible = List.filter (fun i -> i <> source) (List.init n (fun i -> i)) in
  let count =
    min (List.length eligible) (int_of_float (Float.round (fraction *. float_of_int n)))
  in
  let arr = Array.of_list eligible in
  Rng.shuffle rng arr;
  let byz = Array.make n false in
  for k = 0 to count - 1 do
    byz.(arr.(k)) <- true
  done;
  byz

(* Every protocol places the same four kinds of machine — source, liar,
   other adversary, honest relay — and only the machine constructors
   differ; one shared assignment pass keeps the three protocol arms in
   [run] from drifting apart. *)
type role = Role_source | Role_liar of Bitvec.t | Role_relay

let assign_machines ~n ~source ~byzantine ~faults ~fake ~adversary_machine make =
  Array.init n (fun i ->
      if i = source then make i Role_source
      else if byzantine.(i) then begin
        match (faults, fake) with
        | Lying _, Some fake_msg -> make i (Role_liar fake_msg)
        | _ -> adversary_machine i
      end
      else make i Role_relay)

(* The deployment draws from the first split of the spec's seed. *)
let topology spec = build_topology (Rng.split (Rng.create spec.seed)) spec

let run ?tap ?(mode = (`Sparse : Engine.mode)) ?topology:prebuilt ?wrap spec =
  let rng = Rng.create spec.seed in
  (* The split order is part of the deterministic contract: it must stay
     fixed — and the splits must happen — whether or not a prebuilt
     topology is supplied, or a warm re-run would draw different fault and
     channel streams than the cold run it repeats.  The first split is the
     deployment's, which [topology] draws afresh. *)
  let _deployment_rng = Rng.split rng in
  let faults_rng = Rng.split rng in
  let channel_rng = Rng.split rng in
  let topology =
    (* An override must be the topology this spec builds (same seed, same
       deployment) or results are meaningless; campaign warm rounds reuse
       the cold round's topology this way to skip the rebuild. *)
    match prebuilt with
    | Some t -> t
    | None -> topology spec
  in
  let deployment = Topology.deployment topology in
  let n = Deployment.size deployment in
  let source = Deployment.center_node deployment in
  (* Fail fast on a source that cannot cover the deployment: every honest
     node beyond reach would be reported as a silent delivery failure,
     indistinguishable from a protocol defect.  Sweeps that deliberately
     measure partial coverage (sparse random deployments, crash faults)
     opt out via [allow_unreachable]. *)
  if not spec.allow_unreachable then begin
    let unreachable = n - Graph.reachable_from (Topology.graph topology) source in
    if unreachable > 0 then raise (Unreachable { unreachable; total = n })
  end;
  let byzantine =
    match spec.faults with
    | No_faults -> Array.make n false
    | Crash fraction | Lying fraction -> pick_byzantine faults_rng ~n ~source ~fraction
    | Jamming { fraction; _ } | Selective_jam { fraction; _ } ->
      pick_byzantine faults_rng ~n ~source ~fraction
  in
  let fake =
    match spec.faults with Lying _ -> Some (fake_message spec.message) | _ -> None
  in
  let honest = Array.init n (fun i -> not byzantine.(i)) in
  (* Protocol length scale: the configured radius where the topology is
     geometric, the longest embedded decode edge where it is an explicit
     graph (so voting windows and frame lattices still cover the
     one-hop neighbourhood). *)
  let eff_radius =
    if Topology.is_geometric topology then spec.radius else Topology.rx_reach topology
  in
  let adversary_machine schedule i =
    match spec.faults with
    | No_faults -> Engine.silent_machine
    | Crash _ -> Engine.silent_machine
    | Jamming { budget; probability; _ } ->
      let jam_rng = Rng.split faults_rng in
      ignore i;
      ignore schedule;
      Jammer.veto_jammer ~rng:jam_rng ~budget:(Budget.create budget) ~probability
    | Selective_jam { budget; probability; _ } ->
      let jam_rng = Rng.split faults_rng in
      ignore i;
      Selective.source_jammer ~schedule ~rng:jam_rng ~budget:(Budget.create budget) ~probability
    | Lying _ -> Engine.silent_machine (* replaced below per protocol *)
  in
  let msg_len = Bitvec.length spec.message in
  let assign ~schedule make =
    assign_machines ~n ~source ~byzantine ~faults:spec.faults ~fake
      ~adversary_machine:(adversary_machine schedule) make
  in
  (* The schedule-driven protocols also hand the engine their listener
     sets; Epidemic and CPA keep the default (everyone listens). *)
  let machines, cycle_rounds, progress, listeners =
    match spec.protocol with
    | Neighbor_watch { votes } ->
      let config =
        let base = Neighbor_watch.default_config ~radius:eff_radius ~msg_len in
        {
          base with
          Neighbor_watch.votes;
          pipelined = spec.pipelined;
          square_side =
            (match spec.square_side with
            | Some side -> side
            | None -> base.Neighbor_watch.square_side);
        }
      in
      let ctx = Neighbor_watch.make_ctx config ~topology ~source in
      ( assign ~schedule:(Neighbor_watch.schedule ctx) (fun i -> function
          | Role_source -> Neighbor_watch.machine ctx i (Neighbor_watch.Source spec.message)
          | Role_liar fake_msg -> Neighbor_watch.machine ctx i (Neighbor_watch.Liar fake_msg)
          | Role_relay -> Neighbor_watch.machine ctx i Neighbor_watch.Relay),
        Schedule.cycle (Neighbor_watch.schedule ctx) * Schedule.rounds_per_interval,
        (fun () -> Neighbor_watch.progress ctx),
        Some (Neighbor_watch.listeners ctx) )
    | Multi_path { tolerance } ->
      let config =
        {
          (Multi_path.default_config ~radius:eff_radius ~tolerance ~msg_len) with
          heard_relay_limit = spec.heard_relay_limit;
        }
      in
      let ctx = Multi_path.make_ctx config ~topology ~source in
      ( assign ~schedule:(Multi_path.schedule ctx) (fun i -> function
          | Role_source -> Multi_path.machine ctx i (Multi_path.Source spec.message)
          | Role_liar fake_msg -> Multi_path.machine ctx i (Multi_path.Liar fake_msg)
          | Role_relay -> Multi_path.machine ctx i Multi_path.Relay),
        Schedule.cycle (Multi_path.schedule ctx) * Schedule.rounds_per_interval,
        (fun () -> Multi_path.progress ctx),
        Some (Multi_path.listeners ctx) )
    | Epidemic ->
      let ctx = Epidemic.make_ctx ~topology ~source in
      ( assign ~schedule:(Epidemic.schedule ctx) (fun i -> function
          | Role_source -> Epidemic.machine ctx i (Epidemic.Source spec.message)
          | Role_liar fake_msg -> Epidemic.machine ctx i (Epidemic.Liar fake_msg)
          | Role_relay -> Epidemic.machine ctx i Epidemic.Relay),
        Epidemic.cycle_rounds ctx,
        (fun () -> 0),
        None )
    | Certified { tolerance } ->
      let ctx = Certified_propagation.make_ctx ~tolerance ~topology ~source in
      ( assign ~schedule:(Certified_propagation.schedule ctx) (fun i -> function
          | Role_source ->
            Certified_propagation.machine ctx i (Certified_propagation.Source spec.message)
          | Role_liar fake_msg ->
            Certified_propagation.machine ctx i (Certified_propagation.Liar fake_msg)
          | Role_relay -> Certified_propagation.machine ctx i Certified_propagation.Relay),
        Certified_propagation.cycle_rounds ctx,
        (fun () -> Certified_propagation.progress ctx),
        None )
  in
  let machines = match wrap with Some f -> f ~listeners machines | None -> machines in
  let waiters = Array.init n (fun i -> honest.(i) && i <> source) in
  (* Three silent schedule cycles mean the run is permanently stuck (one
     cycle can legitimately be silent under all-zero parity/data pairs). *)
  let idle_stop = (3 * cycle_rounds) + 64 in
  (* A wedged protocol can also keep transmitting forever (honest square
     members vetoing liars); cut the run when the bit-level progress
     counter has been flat for a long stretch of schedule cycles. *)
  let stall_window = 25 * cycle_rounds in
  let stop_when =
    let last_progress = ref (-1) in
    let checks_since_change = ref 0 in
    let checks_allowed = max 1 (stall_window / 96) in
    fun () ->
      let p = progress () in
      if p <> !last_progress then begin
        last_progress := p;
        checks_since_change := 0;
        false
      end
      else begin
        incr checks_since_change;
        !checks_since_change >= checks_allowed
      end
  in
  let engine =
    Engine.run ~mode ~rng:channel_rng ~channel:spec.channel ~idle_stop ~stop_when ?tap ?listeners
      ~topology ~machines ~waiters ~cap:spec.cap ()
  in
  { spec; topology; source; honest; fake; engine }

(* Named specs mirroring the bundled examples (examples/<name>.ml), so the
   static checkers ship with the exact configurations the demos run.  Keep
   in sync when an example changes its parameters. *)
let presets =
  [
    ( "quickstart",
      {
        default with
        map_w = 10.0;
        map_h = 10.0;
        deployment = Uniform 120;
        radius = 3.0;
        seed = 2024;
      } );
    ( "lying_attack",
      {
        default with
        map_w = 12.0;
        map_h = 12.0;
        deployment = Uniform 300;
        radius = 2.5;
        faults = Lying 0.05;
        seed = 7;
      } );
    ( "jamming_attack",
      {
        default with
        map_w = 12.0;
        map_h = 12.0;
        deployment = Uniform 220;
        radius = 4.0;
        faults = Jamming { fraction = 0.1; budget = 100; probability = 0.2 };
        seed = 5;
      } );
    ( "clustered_network",
      {
        default with
        map_w = 15.0;
        map_h = 15.0;
        deployment = Clustered { n = 400; clusters = 9; stddev = 1.2 };
        radius = 4.0;
        seed = 21;
      } );
    ( "dual_mode_digest",
      {
        default with
        map_w = 12.0;
        map_h = 12.0;
        deployment = Uniform 250;
        radius = 3.0;
        message = Bitvec.random (Rng.create 99) 32;
        faults = Lying 0.12;
        seed = 11;
      } );
    ( "multi_path",
      {
        default with
        map_w = 8.0;
        map_h = 8.0;
        deployment = Uniform 80;
        radius = 2.5;
        protocol = Multi_path { tolerance = 1 };
        heard_relay_limit = Some 4;
        seed = 3;
      } );
    ( "epidemic_baseline",
      {
        default with
        map_w = 10.0;
        map_h = 10.0;
        deployment = Uniform 150;
        radius = 3.0;
        protocol = Epidemic;
        seed = 11;
      } );
    ( "graph_corridor",
      {
        default with
        deployment = Corridor { rooms = 3; room_w = 4; room_h = 5; hall_len = 3 };
        protocol = Certified { tolerance = 1 };
        message = Bitvec.of_string "101";
        cap = 500_000;
        seed = 9;
      } );
  ]

let preset name = List.assoc_opt name presets

let preset_exn name =
  match preset name with
  | Some spec -> spec
  | None ->
    invalid_arg
      (Printf.sprintf "Scenario.preset_exn: unknown preset %s (known: %s)" name
         (String.concat ", " (List.map fst presets)))

type summary = {
  honest_nodes : int;
  delivered_any : int;
  delivered_correct : int;
  completion_rate : float;
  correct_of_delivered : float;
  correct_rate : float;
  rounds : int;
  active_rounds : int;
  hit_cap : bool;
  total_broadcasts : int;
  mean_completion_round : float;
}

let summarize result =
  let n = Array.length result.honest in
  let honest_nodes = ref 0 in
  let delivered_any = ref 0 in
  let delivered_correct = ref 0 in
  let completion_rounds = ref [] in
  for i = 0 to n - 1 do
    if result.honest.(i) && i <> result.source then begin
      incr honest_nodes;
      match result.engine.Engine.delivered.(i) with
      | Some bits ->
        incr delivered_any;
        if Bitvec.equal bits result.spec.message then incr delivered_correct;
        completion_rounds :=
          float_of_int result.engine.Engine.completion_round.(i) :: !completion_rounds
      | None -> ()
    end
  done;
  let ratio a b = if b = 0 then if a = 0 then 1.0 else 0.0 else float_of_int a /. float_of_int b in
  {
    honest_nodes = !honest_nodes;
    delivered_any = !delivered_any;
    delivered_correct = !delivered_correct;
    completion_rate = ratio !delivered_any !honest_nodes;
    correct_of_delivered = ratio !delivered_correct !delivered_any;
    correct_rate = ratio !delivered_correct !honest_nodes;
    rounds = result.engine.Engine.rounds_used;
    active_rounds = result.engine.Engine.active_rounds;
    hit_cap = result.engine.Engine.hit_cap;
    total_broadcasts = Array.fold_left ( + ) 0 result.engine.Engine.broadcasts;
    mean_completion_round = Stats.mean !completion_rounds;
  }
