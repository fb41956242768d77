(** The paper's evaluation (Section 6) and the DESIGN.md ablations as
    declarative {!Experiment.job}s — grid definitions plus row renderers.

    Each job describes the same rows/series the paper reports; execution
    (sequential or domain-parallel) lives in [lib/run].  [Quick] is a
    scaled-down configuration (smaller maps, fewer repetitions, a HEARD
    relay cap for MultiPathRB) sized so the whole suite completes in
    minutes; [Paper] reproduces the paper's parameters — at MultiPathRB's
    paper scale this is overnight-slow, exactly as the authors report
    ("the simulation becomes prohibitively slow").  EXPERIMENTS.md records
    paper-vs-measured for each experiment id. *)

type scale = Experiment.scale = Quick | Paper

val protocol_name : Scenario.protocol -> string

val relay_limit : scale -> tolerance:int -> int option
(** MultiPathRB HEARD relay cap used at Quick scale (just above the quorum
    size); Paper scale relays everything, as the protocol says. *)

val fig5_crash : Experiment.job
(** E1 — Figure 5: completion rate vs deployment density under crash
    failures, for NW, 2-vote NW, and MultiPathRB (t = 3, 5). *)

val jamming : Experiment.job
(** E2 — §6.1 jamming: completion time vs per-jammer broadcast budget (10%
    jammers hitting veto rounds with probability 1/5); the fit documents
    the linear budget→delay relation the paper describes. *)

val fig6_lying : Experiment.job
(** E3 — Figure 6: fraction of delivered messages that are correct vs the
    fraction of lying devices. *)

val fig7_density : Experiment.job
(** E4 — Figure 7: maximum Byzantine fraction tolerated while ≥90% of
    honest nodes still receive the correct message, per (protocol,
    density).  MultiPathRB rows only at [Paper] scale (as in the paper,
    which stops it at density 5). *)

val clustered : Experiment.job
(** E5 — §6.2 non-uniform deployments: NW completion/correctness under
    uniform vs clustered placement, with and without liars. *)

val map_size : Experiment.job
(** E6 — §6.2 varying map size: NW rounds and broadcasts vs hop diameter;
    the two fits document the linear scaling the paper reports. *)

val epidemic_comparison : Experiment.job
(** E7 — §6.2: NW completion time relative to the epidemic baseline across
    map sizes; a note reports the mean slowdown (paper: ≈7.7×). *)

val ablation_pipeline : Experiment.job
(** A1: pipelined forwarding vs naive store-and-forward, across message
    lengths — the paper's central performance claim (Section 5). *)

val ablation_square : Experiment.job
(** A2: square side R/2 (analytic sizing) vs R/3 (simulation sizing) on
    the Euclidean radio — why the implementation shrinks the squares. *)

val ablation_jamprob : Experiment.job
(** A3: jammer veto-round probability sweep at fixed budget (the paper
    found 1/5 near-optimal for the attacker). *)

val ablation_dualmode : Experiment.job
(** A4: the dual-mode scheme (§1 "Interpretation"): slowdown over plain
    epidemic flooding as a function of digest size. *)

val ablation_cpa : Experiment.job
(** A5: certified propagation (Koo/Bhandari–Vaidya) on its idealised
    authenticated channel vs MultiPathRB on the Byzantine radio, on
    identical topologies — the cost of hardening the radio. *)

val hop_diameter : Scenario.spec -> int
(** The hop eccentricity of [Scenario.run]'s source (the deployment's
    centre node) in the spec's topology, from {!Scenario.topology} alone:
    E6 and E8b plot rounds against it. *)
