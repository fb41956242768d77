(* The four workloads of the layer benchmark and their set-up.

   Each workload is a fixed list of broadcasts derived from one seed; a
   run replays the list back to back (a closed loop, one broadcast at a
   time).  They were picked so that each stresses a different layer:

   - nw-paper: the paper's own configuration (20x20, 600 nodes, Friis R=4).
     Average degree ~63, so channel fan-in and the NW tally dominate.
   - mp-lying: quick-E3 geometry under MultiPathRB with liars; long runs
     through Voting.Index on a small network, so protocol time dominates.
   - scale-sparse: the S1 campaign's uniform-disk cell at n=10^4, degree
     12.  Few transmissions per round against O(n) per-round sweeps, so
     the engine loop and set-up dominate.
   - mp-expander: MultiPathRB on a synthetic expander.  Same code as
     mp-lying, but no geometry, no liars and mostly clear receptions. *)

type t = {
  name : string;
  specs : int -> Scenario.spec array;
      (** the broadcasts of one pass, in run order, for a workload seed *)
}

(* Per-topology spec seeds drawn from the workload seed. *)
let spec_seeds seed k =
  let rng = Rng.create seed in
  List.init k (fun _ -> Rng.int rng 0x3FFF_FFFF)

let nw_paper =
  {
    name = "nw-paper";
    specs =
      (fun seed ->
        (* Seed-major order: every six consecutive broadcasts cover all six
           configurations, so a run cut short by its time budget still sees
           the whole mix. *)
        Array.of_list
          (List.concat_map
             (fun s ->
               List.concat_map
                 (fun votes ->
                   List.map
                     (fun faults ->
                       {
                         Scenario.default with
                         protocol = Scenario.Neighbor_watch { votes };
                         faults;
                         seed = s;
                       })
                     [ Scenario.No_faults; Scenario.Lying 0.05; Scenario.Lying 0.10 ])
                 [ 1; 2 ])
             (spec_seeds seed 12)));
  }

let mp_lying =
  {
    name = "mp-lying";
    specs =
      (fun seed ->
        Array.of_list
          (List.map
             (fun s ->
               {
                 Scenario.default with
                 map_w = 10.0;
                 map_h = 10.0;
                 deployment = Scenario.Uniform 200;
                 radius = 2.5;
                 message = Bitvec.of_string "101";
                 protocol = Scenario.Multi_path { tolerance = 1 };
                 heard_relay_limit = Some 4;
                 faults = Scenario.Lying 0.05;
                 allow_unreachable = true;
                 seed = s;
               })
             (spec_seeds seed 8)));
  }

let scale_sparse =
  {
    name = "scale-sparse";
    specs =
      (fun seed ->
        let base =
          {
            Scenario.default with
            message = Bitvec.of_string "10";
            protocol = Scenario.Neighbor_watch { votes = 1 };
            faults = Scenario.No_faults;
          }
        in
        Array.of_list
          (List.map
             (fun s ->
               {
                 (Scale_sweep.cell_spec ~base ~klass:Scale_sweep.Uniform_radio ~nodes:10_000
                    ~density:12.0)
                 with
                 seed = s;
               })
             (spec_seeds seed 4)));
  }

let mp_expander =
  {
    name = "mp-expander";
    specs =
      (fun seed ->
        Array.of_list
          (List.map
             (fun s ->
               {
                 Scenario.default with
                 deployment = Scenario.Expander { n = 1000; degree = 8 };
                 message = Bitvec.of_string "10";
                 protocol = Scenario.Multi_path { tolerance = 1 };
                 heard_relay_limit = Some 4;
                 seed = s;
               })
             (spec_seeds seed 4)));
  }

let all = [ nw_paper; mp_lying; scale_sparse; mp_expander ]
let find name = List.find_opt (fun w -> String.equal w.name name) all

(* Set-up: the deployment, topology and CSR fan-out of every distinct
   topology a pass uses, built from the first split of [Rng.create
   spec.seed] exactly as [Scenario.run] builds them, so the broadcasts can
   run on them through [Scenario.run ~topology].  Forcing the lazy CSR
   here keeps its construction out of the simulation time. *)

let propagation spec =
  match spec.Scenario.radio with
  | Scenario.Friis -> Propagation.friis spec.Scenario.radius
  | Scenario.Disk_l2 -> Propagation.disk_l2 spec.Scenario.radius
  | Scenario.Disk_linf -> Propagation.disk_linf spec.Scenario.radius

let build_topology spec =
  let rng = Rng.split (Rng.create spec.Scenario.seed) in
  match spec.Scenario.deployment with
  | Scenario.Uniform n ->
    Topology.build
      (Deployment.uniform rng ~n ~width:spec.Scenario.map_w ~height:spec.Scenario.map_h)
      (propagation spec)
  | Scenario.Expander { n; degree } -> Graphs.expander rng ~n ~degree
  | _ -> invalid_arg "Workloads.build_topology: deployment kind not used by any workload"

type setup = {
  topologies : Topology.t array;  (** one per broadcast of the pass *)
  topology_s : float list;  (** per repetition: summed deployment + topology build *)
  csr_s : float list;  (** per repetition: summed CSR build *)
}

(* Broadcasts of one pass share a topology exactly when they share a spec
   seed (the deployment fields are equal within a workload).  The whole
   set-up is repeated — at least five times, and until two seconds of it
   have been measured (at most 50 times) — so its time can be reported
   as a median that a 10 ms set-up does not leave to timer jitter; the
   last repetition's topologies are the ones used.  Each repetition starts
   from a collected heap, so none pays for its predecessor's garbage.
   [~repeat:false] builds once, for runs that report no set-up time. *)
let setup ~now ~repeat specs =
  let topo_times = ref [] and csr_times = ref [] in
  let built = ref [||] in
  let reps = ref 0 and spent = ref 0.0 in
  while !reps = 0 || (repeat && (!reps < 5 || (!spent < 2.0 && !reps < 50))) do
    incr reps;
    Gc.full_major ();
    let cache = Hashtbl.create 16 in
    let topo_s = ref 0.0 and csr_s = ref 0.0 in
    built :=
      Array.map
        (fun spec ->
          match Hashtbl.find_opt cache spec.Scenario.seed with
          | Some t -> t
          | None ->
            let t0 = now () in
            let t = build_topology spec in
            let t1 = now () in
            ignore (Graph.csr (Topology.graph t));
            let t2 = now () in
            topo_s := !topo_s +. (t1 -. t0);
            csr_s := !csr_s +. (t2 -. t1);
            Hashtbl.add cache spec.Scenario.seed t;
            t)
        specs;
    spent := !spent +. !topo_s +. !csr_s;
    topo_times := !topo_s :: !topo_times;
    csr_times := !csr_s :: !csr_times
  done;
  { topologies = !built; topology_s = !topo_times; csr_s = !csr_times }
