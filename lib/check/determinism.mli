(** Determinism checker: the same seeded spec must produce bit-identical
    executions.

    [check_spec] runs {!Scenario.run} twice with the engine's trace tap
    installed and diffs the full round-by-round channel trace (who
    transmitted, what every radio resolved).  Hidden nondeterminism —
    mutable state shared across runs, hash-table iteration order leaking
    into transmissions, RNG use outside the split streams — surfaces as a
    first divergent round with both digests. *)

type trace = Engine.round_digest array

val collector : unit -> (Engine.round_digest -> unit) * (unit -> trace)
(** A tap to pass to {!Engine.run} / {!Scenario.run} and the function that
    returns everything it recorded. *)

type divergence = {
  round : int;  (** first divergent round (or the shorter trace's length) *)
  first : Engine.round_digest option;  (** [None]: this trace ended early *)
  second : Engine.round_digest option;
}

type outcome = Deterministic of { rounds : int } | Diverged of divergence

val diff : trace -> trace -> outcome

val capture_spec :
  ?max_rounds:int ->
  ?mode:Engine.mode ->
  Scenario.spec ->
  trace * Scenario.result
(** One traced run.  [max_rounds] lowers the round cap so that checking
    stays cheap on large scenarios.  [mode] picks the engine loop
    (default sparse); rounds the sparse loop skips appear in the trace as
    all-silent digests, so traces are comparable across modes. *)

val check_spec : ?max_rounds:int -> ?mode:Engine.mode -> Scenario.spec -> outcome
(** Two traced runs of the same spec, diffed. *)

val mode_label : Engine.mode -> string
(** ["dense"], ["sparse"]. *)

val mode_of_label : string -> Engine.mode option
(** Inverse of {!mode_label} (case-insensitive); [None] on unknown
    spellings. *)

val check_modes :
  ?max_rounds:int -> Engine.mode list -> Scenario.spec -> ((string * string) * outcome) list
(** One traced run per mode, every pair diffed (labels name the pair); a
    single mode degenerates to {!check_spec}'s run-twice form.  The
    engine's mode-equivalence promise makes any divergence a bug in one
    of the two named loop implementations. *)

val outcome_to_string : outcome -> string
