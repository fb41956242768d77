(** Epoch-based mobile authenticated broadcast — the natural adaptation of
    NeighborWatchRB to mobile nodes, listed as future work in Section 7.

    Time is divided into epochs.  Within an epoch, positions are treated as
    static: the localisation service gives each node its current location,
    from which squares, schedules and neighbour sets are derived exactly as
    in the static protocol.  Between epochs, nodes move (random waypoint)
    and everything location-derived is recomputed — but each node keeps the
    message prefix it has already committed, because commitment is a local,
    already-authenticated fact (Theorem 3 part 1 does not depend on where
    the node goes next).

    Safety is therefore unaffected by mobility; what mobility can cost is
    liveness per epoch (a node may move away mid-exchange and waste the
    tail of an epoch), and what it can buy is connectivity: moving nodes
    ferry committed bits across gaps that would partition a static
    deployment. *)

type config = {
  map : float;
  nodes : int;
  radius : float;
  message : Bitvec.t;
  epoch_rounds : int;
      (** rounds of protocol execution per epoch; clamped up to
          (msg_len + 2) schedule cycles — shorter epochs cannot advance the
          frontier, because a re-clustered square must re-stream its whole
          committed prefix for its new neighbours *)
  max_epochs : int;
  model : Mobility.model;
  liar_fraction : float;  (** pre-committed fake devices, as in E3 *)
  seed : int;
}

val default : config
(** 12×12 map, 200 nodes, R = 3, 4-bit message, 3000-round epochs, speed
    0.002 units/round, no liars. *)

type result = {
  epochs_used : int;
  rounds_total : int;
  active_rounds : int;  (** transmission-carrying rounds, summed over epochs *)
  completion_rate : float;  (** honest nodes that delivered *)
  correct_rate : float;  (** honest nodes that delivered the true message *)
  mean_displacement : float;  (** distance travelled per node over the run *)
}

val run : config -> result

val job : Experiment.job
(** The [mobile] table: completion and correctness vs waypoint speed (one
    row per speed, one {!run} each).  Its deployments are sparse, so the
    table shows the interesting regime: static partitions that movement
    ferries the message across. *)
