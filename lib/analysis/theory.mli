(** Validation of the running-time bound of Theorem 5:
    delivery in O(β·D + log|Σ|) rounds.

    The theorem is asymptotic, so the check is empirical linearity on the
    analytic model (L-infinity grid): completion time should grow linearly
    (high r²) in each of

    - the adversary's broadcast budget β at fixed diameter and message,
    - the network diameter D at fixed β and message,
    - the message length (≈ log|Σ|) at fixed β and D,

    which is exactly what a tight O(βD + log|Σ|) bound predicts for
    one-variable sweeps.  Each sweep is a declarative {!Experiment.job}
    carrying the corresponding linear fit. *)

val jobs : Experiment.job list
(** E8a (rounds vs per-jammer budget on a grid), E8b (rounds vs hop
    diameter across grid sizes) and E8c (rounds vs message length on a
    fixed grid), in that order.  Every run is the analytic setting: a
    [side × side] unit grid under the L∞ disk radio with R = 2 and the
    ⌈R/2⌉ square sizing. *)
