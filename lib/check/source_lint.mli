(** Source-level determinism and concurrency lint.

    The repo's headline reproducibility guarantee — [--jobs N] runs are
    byte-identical to sequential runs — is easy to break with a single
    innocuous call: iterating a [Hashtbl] into output, comparing protocol
    records with the polymorphic [compare], drawing from the ambient
    [Random] state, timestamping protocol decisions, or keeping a counter
    at module top level that every trial bumps.  This pass parses
    every [.ml] file (via compiler-libs) and flags those hazards
    statically, so [dune build @lint] catches them before any simulation
    diverges.

    Rules and their stable codes (all [Error] severity):
    - [hashtbl-order]: [Hashtbl.iter]/[Hashtbl.fold] — iteration order is
      unspecified; collect and sort, or prove commutativity and allowlist;
    - [poly-compare]: the polymorphic [compare] — silently order-unstable
      under representation changes; use [Float.compare]/[Int.compare]/
      [String.compare] or a derived comparator;
    - [poly-hash]: [Hashtbl.hash]/[Hashtbl.hash_param] on protocol values;
    - [ambient-random]: any use of [Random] — simulations must draw from
      the splittable, explicitly seeded {!Rng};
    - [wall-clock]: [Unix.gettimeofday]/[Unix.time]/[Sys.time] outside
      [lib/run/] and [bench/] (timing the harness is fine; timing protocol
      logic is not);
    - [domain-outside-run]: [Domain]/[Atomic] outside [lib/run/] — all
      parallelism is confined to the deterministic job pool;
    - [engine-mode]: an application of [Engine.run] without a [~mode]
      argument outside [lib/check/] and [test/] — the sparse and dense
      loops are held byte-identical by the equivalence test, but
      production call sites must say which loop they mean rather than
      silently follow the default;
    - [global-mutable]: a top-level binding in a module under [lib/] whose
      right-hand side allocates a mutable cell ([ref], [Array.make]/
      [init]/[create_float]/[make_matrix], [Hashtbl]/[Buffer]/[Queue]/
      [Stack.create], [Bytes.create]/[make], with or without [Stdlib.]) —
      the cell is shared by every trial the pool runs, on any domain
      ([Atomic.make] is left to [domain-outside-run]).  Top level means
      the file's own bindings and those of [struct ... end] modules bound
      in it, at any depth, through module-type constraints, [include] and
      [module rec].  Functor bodies and [let module] are out of scope:
      they run per application or evaluation, and a functor applied at
      top level is not followed into its body;
    - [unused-allowlist]: an {!allowlist} entry that suppressed no
      diagnostic during a {!lint} run over its file — stale audits are
      themselves errors so they cannot rot in place;
    - [parse-error]: the file failed to parse (reported by {!parse}).

    Findings at locations listed in {!allowlist} are suppressed: those
    are the audited, order-insensitive uses.  [wall-clock] and
    [engine-mode] are additionally exempt under [test/] (test timers,
    equivalence fixtures), and [global-mutable] applies only under
    [lib/]. *)

val source_files : string list -> string list
(** The [.ml] files under the given files/directories (recursive,
    skipping [_build]-style and hidden directories), in sorted order.
    @raise Sys_error on a path that does not exist. *)

val parse :
  (string * string) list -> (string * Parsetree.structure) list * Diagnostics.diagnostic list
(** Parse [(path, contents)] files (compiler-libs, no typing): the parsed
    ones in input order, and one [parse-error] diagnostic per file that
    fails, at the line where parsing stopped.  No other code builds a
    [parse-error]. *)

val allowlist : (string * string * int) list
(** [(file suffix, code, definition line)] entries suppressed as
    audited-sound, e.g. commutative [Hashtbl.fold]s and the engine's
    explicit fingerprint hash.  A stale entry's diagnostic points at its
    definition line in [lib/check/source_lint.ml]. *)

val lint : (string * Parsetree.structure) list -> Diagnostics.diagnostic list
(** Lint parsed files (see {!parse}); path-based exemptions and
    the allowlist apply, and every allowlist entry whose file was linted
    but which suppressed nothing is an [unused-allowlist] error.  Sorted
    by file, then line. *)
