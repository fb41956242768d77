(** Scenario linter: static validation of a {!Scenario.spec} before any
    simulation round runs.

    Three families of checks:
    - {b resilience}: Byzantine fractions against the per-neighbourhood
      analytic tolerance formulas of {!Bounds} — [t < ⌈R/2⌉²] for
      NeighborWatchRB, [t < R²/2] for the 2-voting variant, the configured
      [t] (and Koo's impossibility bound [t < R(2R+1)/2]) for MultiPathRB;
    - {b geometry}: the square-partition preconditions of {!Squares} —
      adjacent watch squares must be in mutual decode range, squares should
      be expected non-empty;
    - {b sanity}: map dimensions, radii, message, channel parameters,
      round caps, jammer budgets and probabilities.  Every float range
      check rejects NaN.

    Each diagnostic is located at [scenario.field] (a
    {!Diagnostics.Field}) and carries a stable short code. *)

val lint : name:string -> Scenario.spec -> Diagnostics.diagnostic list
(** All diagnostics for one spec, in field order. *)
