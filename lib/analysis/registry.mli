(** The experiment registry: every table the benchmark harness prints —
    the paper's evaluation (E1–E7), the Theorem 5 sweeps (E8a–E8c), the
    DESIGN.md ablations (A1–A5), the analytic bounds table, the mobile
    extension, the graph-class comparison (G1) and the scale sweep (S1) —
    as a declarative {!Experiment.job} under a stable id.  Each job is
    defined next to the code it measures; this module only fixes their
    order.  The bench and CLI front ends select and execute jobs through
    this module only. *)

val all : Experiment.job list
(** Every registered job, in canonical print order.  Ids are unique. *)

val ids : string list
(** The ids of {!all}, in order. *)

val find : string -> Experiment.job option
(** Case-insensitive lookup by id. *)
