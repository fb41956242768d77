(** Approximate interprocedural call graph over the repo's Parsetree.

    The shared machinery behind the source-level analyzers: the one
    parse of the tree they all lint, a few expression helpers, and the
    whole-tree function inventory that {!Alloc_lint} walks from its
    annotated hot roots.

    Everything is purely syntactic — [Parse.implementation], no typing.
    Unqualified references resolve to same-file bindings of that name
    (all of them; duplicates union), qualified references to any function
    whose module-qualified name ends in the reference ("Index.add"
    reaches "Voting.Index.add").  Higher-order flow, functors and
    shadowing are invisible; clients stay conservative accordingly. *)

(** {1 The shared parse} *)

val source_files : string list -> string list
(** The [.ml] files under the given files/directories (recursive,
    skipping [_build]-style and hidden directories), in sorted order.
    @raise Sys_error on a path that does not exist. *)

val parse :
  (string * string) list -> (string * Parsetree.structure) list * Diagnostics.diagnostic list
(** Parse [(path, contents)] files: the parsed ones in input order, and
    one [parse-error] diagnostic per file that fails, at the line where
    parsing stopped.  Every source analyzer lints this one parse, and no
    other code builds a [parse-error]. *)

(** {1 Expression helpers} *)

val line_of : Location.t -> int

val peel : Parsetree.expression -> Parsetree.expression
(** Strip type constraints and coercions. *)

val head_ident : Parsetree.expression -> string option
(** The dotted value path of an identifier expression, if it is one. *)

val iter_expr : (Parsetree.expression -> unit) -> Parsetree.expression -> unit
(** Apply [f] to every subexpression (prefix order). *)

(** {1 Whole-tree function inventory} *)

type fn_info = {
  fn_name : string;  (** leaf binding name, e.g. ["add"] *)
  fn_qual : string;  (** module-qualified, e.g. ["Voting.Index.add"] *)
  fn_file : string;
  fn_line : int;
  fn_arity : int;  (** leading syntactic parameters *)
  fn_body : Parsetree.expression;
  fn_refs : string list;  (** what the body references, minus the names it binds *)
}

type t

val build : (string * Parsetree.structure) list -> t
(** Inventory every let-bound function (any depth) of the parsed files,
    qualified by enclosing module path, in encounter order. *)

val resolve : t -> file:string -> string -> fn_info list
(** All functions a reference written in [file] may denote: same-file
    name matches when unqualified, qualified-suffix matches otherwise. *)

val reachable : t -> roots:string list -> fn_info list
(** Every function transitively reachable from the roots (each root a
    qualified name or suffix thereof), in deterministic discovery
    order. *)
