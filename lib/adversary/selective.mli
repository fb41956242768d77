(** Slot-selective jamming, after the selective-broadcast adversary of
    Tseng–Vaidya: a schedule-aware jammer that concentrates its budget on
    the intervals owned by a single TDMA slot rather than spraying veto
    rounds indiscriminately.  Targeting the source slot starves the whole
    network of directly authenticated bits at minimal cost — the
    strongest per-budget jamming strategy against the slotted
    protocols. *)

val source_jammer :
  schedule:Schedule.t -> rng:Rng.t -> budget:Budget.t -> probability:float -> Msg.t Engine.machine
(** Jam every round of every interval owned by {!Schedule.source_slot},
    each with the given probability, while budget remains.  The wakeup
    contract covers exactly the source-slot intervals
    ({!Schedule.next_relevant_round}), and the RNG is drawn only in covered
    rounds, so sparse and dense runs stay byte-identical. *)
