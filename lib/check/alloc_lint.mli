(** Hot-path allocation audit.

    Walks the approximate interprocedural call graph ({!Callgraph}) from
    the annotated {!hot_roots} — the engine's active-round phases,
    channel resolution, and the voting kernels — and classifies every
    syntactic allocation site in the reachable functions.  Each distinct
    (file, line, class) site is one {b error}, coded [alloc-<class>]
    ([alloc-closure], [alloc-boxed-float], [alloc-tuple], [alloc-ref],
    [alloc-list], [alloc-array], [alloc-string],
    [alloc-partial-application]), located at the site and naming the
    function and the hot root that reaches it — unless the {!allowlist}
    audits that code for that file.

    Purely syntactic and documented approximate (no typing, no
    higher-order flow; flambda may eliminate some flagged sites) — the
    dynamic counterpart is the [words_per_active_round] gate of
    [securebit_cli compare]. *)

val codes : string list
(** Every stable diagnostic code this pass can emit; pinned by a golden
    test. *)

val hot_roots : (string * string list) list
(** The annotated hot paths: group name to {!Callgraph.reachable} root
    patterns. *)

val allowlist : (string * string * int) list
(** Audited [(file, code, definition line)] pairs, each with its reason
    in a comment above it in [lib/check/alloc_lint.ml].  An entry whose
    file holds a reached function but which suppressed no site is an
    [unused-allowlist] error at its definition line. *)

val lint :
  ?roots:(string * string list) list ->
  (string * Parsetree.structure) list ->
  Diagnostics.diagnostic list
(** The full pass over parsed files (see {!Callgraph.parse}): walk from
    [roots] (default {!hot_roots}), classify, apply the allowlist, and
    report the stale entries among those for files a reached function
    lives in.  Sorted by file, then line. *)

val seed_violation_files : (string * string) list
(** A fake hot module whose round function boxes floats, closes over a
    variable and builds throwaway lists. *)

val seed_violation_roots : (string * string list) list
(** The demo's hot root: lint {!seed_violation_files} under these roots
    and every site fails. *)
