(** Domain-safety lint: static analysis of mutable state shared between
    pool tasks.

    The byte-identical [--jobs N] guarantee requires that closures
    executed on worker domains by {!Pool.map_array}/{!Pool.map_list}/
    [Domain.spawn] touch no unsynchronized mutable state.  This pass checks that property over the
    whole tree at once, purely syntactically (compiler-libs parsetree, no
    typing):

    - {b globals}: per-module escaping mutable state — top-level
      [ref]/[Array.make]/[Hashtbl.create]/[Buffer.create]-style bindings
      ([Atomic.make] cells are collected but never flagged: atomics are
      the sanctioned cross-domain cell);
    - {b capture analysis}: a conservative intra-file call/capture summary
      flags any function reachable from a task expression handed to a pool
      primitive that reads or writes one of those globals (or mutates a
      captured non-[Atomic] mutable binding) without synchronization;
    - {b layer policy}: any top-level mutable binding in lib/core or
      lib/sim is an error outright — those layers must be re-entrant for
      pool workers to run trials through them on separate domains.

    Limits (documented, shared with {!Source_lint}'s philosophy): analysis
    is per-file, so a task calling [M.helper] which internally touches
    [M.state] is invisible, while a task referencing [M.state] directly is
    caught.  The dynamic counterpart — [Pool.map_array ~sanitize] — covers
    races this pass cannot see. *)

val codes : string list
(** Every stable code this pass can emit; pinned by a golden test. *)

val allowlist : (string * string * int) list
(** Audited [(file, code, definition line)] suppressions.  Hygiene is
    enforced: an entry that suppresses nothing is reported as
    [unused-allowlist] at its definition line in
    [lib/check/share_lint.ml]. *)

val lint : (string * Parsetree.structure) list -> Diagnostics.diagnostic list
(** Lint a whole tree of parsed files (see {!Callgraph.parse}).  The
    cross-module set of top-level mutable globals is built from exactly
    these files, so the file set should be the full tree.  Sorted by
    file, then line. *)

val seed_violation_files : (string * string) list
(** A bundled two-module demo tree that violates all three rules
    ([global-mutable-core], [shared-mutable], [capture-mutates]) — the
    [--seed-violation] self-check proving the analyzer fires. *)
