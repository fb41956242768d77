(** Assembly of complete simulation scenarios.

    A {!spec} describes one simulated broadcast exactly the way the paper's
    experiments do: a map, a deployment, a radio model, a protocol variant,
    and a fault model.  [run] builds the deployment and topology, attaches
    per-node machines (honest protocol or adversary), runs the engine, and
    returns everything needed to compute the reported metrics. *)

type protocol =
  | Neighbor_watch of { votes : int }
      (** the NeighborWatchRB protocol; [votes = 2] is the 2-voting variant *)
  | Multi_path of { tolerance : int }  (** MultiPathRB tuned for t faults per region *)
  | Epidemic  (** the unauthenticated flooding baseline *)
  | Certified of { tolerance : int }
      (** CPA over the radio engine (slot-authenticated announcements) *)

type deployment_kind =
  | Uniform of int  (** n nodes uniformly at random *)
  | Clustered of { n : int; clusters : int; stddev : float }
  | Grid  (** one node per integer grid point (the analytic model) *)
  | Grid_holes of { width : int; height : int; holes : int }
      (** 4-adjacent grid with up to [holes] nodes removed, still connected *)
  | Corridor of { rooms : int; room_w : int; room_h : int; hall_len : int }
      (** dense rooms chained by width-one halls (loosely connected) *)
  | Triangulated of { cols : int; rows : int; jitter : float }
      (** planar triangulation of a jittered point grid *)
  | Expander of { n : int; degree : int }
      (** ring plus [degree - 2] random matchings *)
  | Lattice of { width : int; height : int }  (** 8-adjacent (Moore) grid *)

val geometric_deployment : deployment_kind -> bool
(** [true] for the kinds that deploy on the [map_w × map_h] square and
    derive edges from the radio model; the synthetic graph families ignore
    map size, radio and radius. *)

type radio = Friis | Disk_l2 | Disk_linf

type faults =
  | No_faults
  | Crash of float  (** fraction of devices that take no steps *)
  | Jamming of { fraction : float; budget : int; probability : float }
      (** veto-round jammers with a per-device broadcast budget
          ([budget < 0] = unlimited) *)
  | Lying of float  (** fraction of devices pre-committed to a fake message *)
  | Selective_jam of { fraction : float; budget : int; probability : float }
      (** schedule-aware jammers concentrating on the source's slot *)

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
  cap : int;  (** round cap *)
  heard_relay_limit : int option;  (** MultiPathRB relay cap (None = paper) *)
  square_side : float option;
      (** NeighborWatchRB square-size override (default: R/3, the paper's
          simulation sizing) *)
  pipelined : bool;  (** [false]: store-and-forward ablation (DESIGN.md) *)
  allow_unreachable : bool;
      (** [false] (the default): {!run} raises {!Unreachable} when the
          source cannot reach the whole deployment.  Set for sweeps that
          deliberately measure partial coverage. *)
  seed : int;
}

exception Unreachable of { unreachable : int; total : int }
(** Raised by {!run} (before any round executes) when the source cannot
    reach [unreachable] of the [total] nodes and the spec does not set
    [allow_unreachable] — otherwise those nodes would be reported as
    silent delivery failures, indistinguishable from protocol defects. *)

val default : spec
(** 20×20 map, 600 uniform nodes, Friis radio with R=4, ideal channel,
    4-bit message, NeighborWatchRB, no faults — the paper's most common
    configuration. *)

type result = {
  spec : spec;
  topology : Topology.t;
  source : Node.id;
  honest : bool array;  (** honest *and* active (not crashed) *)
  fake : Bitvec.t option;  (** the liars' message, if any *)
  engine : Engine.result;
}

val topology : spec -> Topology.t
(** The deployment and topology [spec] runs on, built alone: from the
    first [Rng.split] of [Rng.create spec.seed], exactly as {!run} builds
    it.  Measurements that need only the graph (hop diameters, set-up
    timings) take it from here instead of running a broadcast; the
    result is also what {!run}'s [?topology] expects. *)

val run :
  ?tap:(Engine.round_digest -> unit) ->
  ?mode:Engine.mode ->
  ?topology:Topology.t ->
  ?wrap:
    (listeners:(int -> int array) option ->
    Msg.t Engine.machine array ->
    Msg.t Engine.machine array) ->
  spec ->
  result
(** [tap] is forwarded to {!Engine.run}: one digest per executed round.
    [mode] selects the engine loop (default [`Sparse]; results are
    mode-independent — the equivalence suite holds both loops
    byte-identical — so [`Dense] is only interesting as the reference).
    [topology], if given, skips the deployment build and runs on the
    supplied topology instead: it must be the very topology this spec
    builds (campaign warm rounds reuse the cold round's); the rng split
    order is unchanged either way, so faults and channel draws are
    identical.  NeighborWatchRB and MultiPathRB runs pass their listener
    sets ({!Neighbor_watch.listeners}, {!Multi_path.listeners}) to the
    engine.
    [wrap ~listeners machines], if given, replaces the assembled machines
    just before the engine runs, and sees those sets ([None] for the
    other protocols): the lever by which the equivalence suite holds the
    listener contract itself against a [`Dense] run, and packed against
    boxed observation ({!Engine.boxed_machine}). *)

val presets : (string * spec) list
(** Named specs mirroring the bundled examples ([examples/<name>.ml]); the
    [securebit_lint] checkers and the [@lint] alias run over these.  The
    examples build their specs from these entries (via {!preset_exn}), so
    the scenario linter's preset pass covers exactly what the examples
    run. *)

val preset : string -> spec option
(** Look up a preset by name. *)

val preset_exn : string -> spec
(** Like {!preset}; raises [Invalid_argument] naming the known presets.
    For the bundled examples, where a missing preset is a bug. *)

type summary = {
  honest_nodes : int;  (** honest nodes other than the source *)
  delivered_any : int;
  delivered_correct : int;
  completion_rate : float;  (** delivered_any / honest_nodes *)
  correct_of_delivered : float;  (** delivered_correct / delivered_any (1 if none) *)
  correct_rate : float;  (** delivered_correct / honest_nodes *)
  rounds : int;
  active_rounds : int;  (** rounds with at least one transmission *)
  hit_cap : bool;
  total_broadcasts : int;
  mean_completion_round : float;  (** over honest nodes that completed *)
}

val summarize : result -> summary

val fake_message : Bitvec.t -> Bitvec.t
(** A canonical fake message for lying experiments: the bitwise complement
    of the real one (maximally different, so mixing is visible). *)
