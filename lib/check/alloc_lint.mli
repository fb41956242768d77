(** Hot-path allocation inventory.

    Walks the approximate interprocedural call graph ({!Callgraph}) from
    the annotated {!hot_roots} — the engine's active-round phases,
    channel resolution, and the voting kernels — classifies every
    syntactic allocation site in the reachable functions, and diffs the
    per-root, per-class counts against the committed golden inventory
    ([ALLOC_baseline.json]):

    - a class a hot root did not previously allocate → {b error}
      ([new-alloc-class]);
    - count growth within a known class → {b warning}
      ([alloc-count-growth]);
    - shrinkage → {b info} nudge to refresh the golden file
      ([alloc-count-shrink]).

    Purely syntactic and documented approximate (no typing, no
    higher-order flow; flambda may eliminate some flagged sites) — the
    dynamic counterpart is the [words_per_active_round] gate of
    [securebit_cli compare].  The {!allowlist} records audited sites with their
    justification; stale entries are themselves errors pointing at the
    entry's definition line in this module. *)

type alloc_class =
  | Closure
  | Boxed_float
  | Tuple
  | Ref_cell
  | List_alloc
  | Array_alloc
  | String_alloc
  | Partial_app

val class_label : alloc_class -> string
(** Stable label: ["closure"], ["boxed-float"], ["tuple"], ["ref"],
    ["list"], ["array"], ["string"], ["partial-application"]. *)

type site = {
  site_file : string;
  site_line : int;
  site_class : alloc_class;
  site_root : string;  (** hot-root group, e.g. ["engine-round"] *)
  site_fn : string;  (** qualified function, e.g. ["Engine.process_round"] *)
}

val codes : string list
(** Every stable diagnostic code this pass can emit; pinned by a golden
    test. *)

val hot_roots : (string * string list) list
(** The annotated hot paths: group name to {!Callgraph.reachable} root
    patterns. *)

type allow = {
  al_file : string;
  al_class : string;
  al_fn : string option;
  al_why : string;  (** the audit's justification, surfaced in [--json] *)
  al_line : int;  (** definition line in [lib/check/alloc_lint.ml] *)
}

val allowlist : allow list
val allowlist_file : string

val sites : ?roots:(string * string list) list -> (string * Parsetree.structure) list -> site list
(** Every classified allocation site reachable from [roots] (default
    {!hot_roots}), allowlist already applied — the per-site view behind
    an inventory count. *)

val inventory_of_sites : site list -> (string * (string * int) list) list
(** Distinct (file, line, class) sites counted per root per class,
    canonically sorted. *)

val schema : string
(** ["securebit-alloc/1"]. *)

val json_of_inventory : (string * (string * int) list) list -> Json.t

val inventory_of_json : Json.t -> ((string * (string * int) list) list, string) result

val default_golden_name : string

val lint :
  ?roots:(string * string list) list ->
  ?golden_name:string ->
  golden:Json.t option ->
  (string * Parsetree.structure) list ->
  Diagnostics.diagnostic list
(** The full pass over parsed files (see {!Callgraph.parse}): walk,
    classify, apply the allowlist, diff against [golden] ([None] =
    missing baseline, an error; located at [golden_name]), report stale
    allowlist entries.  Sorted by file, then line. *)

val load_golden : string -> Json.t option
(** Read a golden inventory: [None] when the file cannot be read (missing
    baseline), [Some Json.Null] when it exists but is not JSON (reported
    as unreadable by {!lint}). *)

val seed_violation_files : (string * string) list
(** A fake hot module whose round function boxes floats, closes over a
    variable and builds throwaway lists. *)

val seed_violation : unit -> Diagnostics.diagnostic list
(** {!lint} of the demo against an empty golden inventory: every class
    fires as [new-alloc-class]. *)
