(** S1: the scale sweep — node count × target density × adversary mix
    over the two graph classes of the scale campaign.  The cell grid and
    its construction here also back [lib/run/campaign.ml], so a registry
    row and a campaign run of the same cell simulate the same spec. *)

type klass = Uniform_radio | Expander_synthetic

val klass_name : klass -> string
val all_classes : klass list

val known_adversaries : string list
(** ["honest"; "crash"; "lying"; "jam"]. *)

val faults_of_adversary : string -> Scenario.faults option
(** The fault model each adversary-mix name stands for: 10% crashed, 10%
    lying, or 5% jamming with budget 50 at probability 0.3. *)

val cell_spec :
  base:Scenario.spec -> klass:klass -> nodes:int -> density:float -> Scenario.spec
(** One sweep cell on top of [base] (which supplies protocol, message,
    faults, cap and seed).  Geometric cells fix the radius at 4.0 and
    size the map for the target degree; expander cells round the density
    to the node degree.  Always sets [allow_unreachable]. *)

type cell = { klass : klass; nodes : int; density : float; adversary : string }

val cells :
  classes:klass list ->
  node_counts:int list ->
  densities:float list ->
  adversaries:string list ->
  cell list
(** Every (class, node count, density, adversary) cell, nested in that
    order: the row order of S1 and the run order of the scale campaign. *)

val spec_of_cell : base:Scenario.spec -> cell -> Scenario.spec
(** {!cell_spec} for the cell, with [faults] from {!faults_of_adversary}.
    Raises [Invalid_argument] on an unknown adversary name. *)

val sweep : Experiment.job
(** The registered S1 job. *)
