(** Jamming adversaries (Section 6.1, "Resilience to Jamming").

    The paper's jammers target the veto rounds of the 2Bit-Protocol — the
    cheapest way to force a failed exchange — broadcasting in each veto
    round with some probability (1/5 was found to be near optimal, since
    higher rates waste budget on redundant jamming), until a per-device
    broadcast budget is exhausted. *)

val veto_jammer : rng:Rng.t -> budget:Budget.t -> probability:float -> Msg.t Engine.machine
(** Jams phases 4 and 5 (R5/R6) of every interval with the given
    probability per round, while budget remains. *)

val scripted :
  ?next_active:(int -> int) ->
  (round:int -> phase:int -> bool) ->
  budget:Budget.t ->
  Msg.t Engine.machine
(** Transmit exactly when the predicate says so (deterministic adversaries
    for unit tests, e.g. spoofing attempts against single-hop exchanges).

    All jammers carry a wakeup contract for the sparse engine: by default
    they are active every round until the budget is exhausted and never
    again after; [?next_active] narrows that further when the predicate's
    schedule is known (it is still gated on remaining budget).  The veto
    jammer wakes only in phases 4–5, matching where its predicate draws
    from its private RNG stream. *)
