(* AST-level lint for determinism and concurrency hazards, built on
   compiler-libs: parse each .ml file and walk the Parsetree for value and
   module references, and top-level mutable cells, that the byte-identical
   --jobs N guarantee cannot tolerate.  Purely syntactic by design — no
   type information — so module aliasing can hide a use from it; the rules
   target the spellings that actually appear in idiomatic code. *)

(* Audited-sound uses.  Certified_propagation's [progress] counter folds
   a commutative count; the engine's fingerprint hashes an explicit
   canonical encoding.  The lint front end times its own analyzers (`securebit_lint
   all` prints per-analyzer wall seconds), which is reporting, not
   protocol logic.

   Each entry records its own definition line so a stale audit's
   diagnostic can point back here instead of at the audited file. *)
let allowlist =
  [
    ("lib/core/certified_propagation.ml", "hashtbl-order", __LINE__);
    ("lib/sim/engine.ml", "poly-hash", __LINE__);
    ("bin/securebit_lint.ml", "wall-clock", __LINE__);
  ]

let in_dir = Diagnostics.in_dir

(* --- the parse ------------------------------------------------------------- *)

(* A path that does not exist raises [Sys_error] (from [Sys.is_directory])
   rather than linting nothing: a misspelt or renamed directory must not
   drop out of a lint silently. *)
let rec collect acc path =
  if Sys.is_directory path then
    Array.fold_left
      (fun acc entry ->
        if entry = "" || entry.[0] = '_' || entry.[0] = '.' then acc
        else collect acc (Filename.concat path entry))
      acc (Sys.readdir path)
  else if Filename.check_suffix path ".ml" then path :: acc
  else acc

let source_files paths = List.sort String.compare (List.fold_left collect [] paths)

(* The only place a parse-error diagnostic is built. *)
let parse files =
  List.partition_map
    (fun (path, contents) ->
      let lexbuf = Lexing.from_string contents in
      Location.init lexbuf path;
      match Parse.implementation lexbuf with
      | structure -> Either.Left (path, structure)
      | exception _ ->
        Either.Right
          {
            Diagnostics.severity = Error;
            loc = Line (path, lexbuf.Lexing.lex_curr_p.Lexing.pos_lnum);
            code = "parse-error";
            message = "file does not parse as an OCaml implementation";
          })
    files

(* --- the rules ------------------------------------------------------------- *)

(* Strip type constraints and coercions. *)
let rec peel (e : Parsetree.expression) =
  match e.pexp_desc with
  | Parsetree.Pexp_constraint (e, _) | Parsetree.Pexp_coerce (e, _, _) -> peel e
  | _ -> e

(* The dotted value path of an identifier expression, if it is one. *)
let head_ident e =
  match (peel e).Parsetree.pexp_desc with
  | Parsetree.Pexp_ident { txt; _ } -> Some (String.concat "." (Longident.flatten txt))
  | _ -> None

(* The rule table: a referenced value path either is clean or maps to a
   diagnostic.  [exempt] carves out the directories where the construct is
   the harness's business (wall time around runs, the job pool). *)
let classify ident =
  match ident with
  | "Hashtbl.iter" | "Hashtbl.fold" | "Stdlib.Hashtbl.iter" | "Stdlib.Hashtbl.fold" ->
    Some
      ( "hashtbl-order",
        ident
        ^ " iterates in unspecified hash order; collect into a list and sort with a typed \
           comparator (or prove commutativity and allowlist)" )
  | "compare" | "Stdlib.compare" ->
    Some
      ( "poly-compare",
        "polymorphic compare is order-unstable across representation changes; use \
         Float.compare/Int.compare/String.compare or a derived comparator" )
  | "Hashtbl.hash" | "Hashtbl.hash_param" | "Stdlib.Hashtbl.hash" ->
    Some ("poly-hash", ident ^ " is representation-dependent; hash a canonical encoding instead")
  | "Unix.gettimeofday" | "Unix.time" | "Sys.time" ->
    Some
      ( "wall-clock",
        ident ^ " reads the wall clock; protocol logic is round-driven (timing belongs under \
                 lib/run/ or bench/)" )
  | _ ->
    if String.starts_with ~prefix:"Random." ident then
      Some
        ( "ambient-random",
          ident ^ " draws from the ambient generator; simulations must use the splittable, \
                   explicitly seeded Rng" )
    else if
      String.starts_with ~prefix:"Domain." ident || String.starts_with ~prefix:"Atomic." ident
    then
      Some
        ( "domain-outside-run",
          ident ^ ": parallelism is confined to the deterministic job pool in lib/run/" )
    else None

let exempt code path =
  match code with
  | "wall-clock" -> in_dir "lib/run" path || in_dir "bench" path || in_dir "test" path
  | "domain-outside-run" -> in_dir "lib/run" path
  | "engine-mode" -> in_dir "lib/check" path || in_dir "test" path
  | "global-mutable" -> not (in_dir "lib" path)
  | _ -> false

(* The calls that allocate a mutable cell.  Bound at the top level of a
   library module, the cell is one piece of state shared by every trial
   the pool runs, on whichever domain runs it.  [Atomic.make] is not
   listed: [domain-outside-run] already confines it to lib/run/. *)
let mutable_allocators =
  [
    "ref"; "Array.make"; "Array.init"; "Array.create_float"; "Array.make_matrix";
    "Hashtbl.create"; "Buffer.create"; "Bytes.create"; "Bytes.make"; "Queue.create";
    "Stack.create";
  ]

let mutable_allocator (e : Parsetree.expression) =
  match (peel e).pexp_desc with
  | Parsetree.Pexp_apply (f, _) -> (
    match head_ident f with
    | Some head
      when List.exists (fun a -> head = a || head = "Stdlib." ^ a) mutable_allocators ->
      Some head
    | Some _ | None -> None)
  | _ -> None

(* The value bindings evaluated once per program: the file's own, and
   those of the [struct ... end] modules bound in it, through module-type
   constraints, [include] and [module rec], at any depth.  A functor body
   runs per application and a [let module] per evaluation, so neither is
   entered. *)
let rec module_level_bindings (structure : Parsetree.structure) =
  List.concat_map
    (fun (item : Parsetree.structure_item) ->
      match item.pstr_desc with
      | Parsetree.Pstr_value (_, bindings) -> bindings
      | Parsetree.Pstr_module mb -> bindings_of_module mb.pmb_expr
      | Parsetree.Pstr_recmodule mbs ->
        List.concat_map (fun (mb : Parsetree.module_binding) -> bindings_of_module mb.pmb_expr) mbs
      | Parsetree.Pstr_include incl -> bindings_of_module incl.pincl_mod
      | _ -> [])
    structure

and bindings_of_module (m : Parsetree.module_expr) =
  match m.pmod_desc with
  | Parsetree.Pmod_structure structure -> module_level_bindings structure
  | Parsetree.Pmod_constraint (m, _) -> bindings_of_module m
  | _ -> []

(* Does this application of [Engine.run] pin the loop variant?  The sparse
   and dense loops are held byte-identical by the equivalence property
   test, but a caller that omits [~mode] silently follows whatever the
   default is — production call sites must state which loop they mean
   (the dense/sparse comparison harness under lib/check is exempt). *)
let is_engine_run txt =
  match List.rev (Longident.flatten txt) with
  | "run" :: "Engine" :: _ -> true
  | _ -> false

let has_mode_arg args =
  List.exists
    (fun (label, _) ->
      match label with
      | Asttypes.Labelled "mode" | Asttypes.Optional "mode" -> true
      | _ -> false)
    args

let module_code head =
  match head with
  | "Random" -> Some ("ambient-random", "module Random is the ambient generator; use Rng")
  | "Domain" | "Atomic" ->
    Some
      ( "domain-outside-run",
        "module " ^ head ^ ": parallelism is confined to the deterministic job pool in lib/run/" )
  | _ -> None

(* Lint one parsed file, also reporting which allowlist entries
   suppressed something: {!lint} needs that for allowlist hygiene. *)
let lint_structure ~path structure =
  let diags = ref [] in
  let used = ref [] in
  let emit code message (loc : Location.t) =
    if not (exempt code path) then
      match Diagnostics.allowed allowlist path code with
      | Some entry -> if not (List.mem entry !used) then used := entry :: !used
      | None ->
        diags :=
          {
            Diagnostics.severity = Error;
            loc = Line (path, loc.Location.loc_start.Lexing.pos_lnum);
            code;
            message;
          }
          :: !diags
  in
  let check_ident txt loc =
    match classify (String.concat "." (Longident.flatten txt)) with
    | Some (code, message) -> emit code message loc
    | None -> ()
  in
  let check_module txt loc =
    match Longident.flatten txt with
    | head :: _ -> (
      match module_code head with Some (code, message) -> emit code message loc | None -> ())
    | [] -> ()
  in
  let default = Ast_iterator.default_iterator in
  let iterator =
    {
      default with
      expr =
        (fun it (e : Parsetree.expression) ->
          (match e.pexp_desc with
          | Parsetree.Pexp_ident { txt; _ } -> check_ident txt e.Parsetree.pexp_loc
          | Parsetree.Pexp_apply
              ({ pexp_desc = Parsetree.Pexp_ident { txt; _ }; _ }, args)
            when is_engine_run txt && not (has_mode_arg args) ->
            emit "engine-mode"
              "Engine.run without ~mode follows the default loop silently; state `Sparse or \
               `Dense at the call site"
              e.Parsetree.pexp_loc
          | _ -> ());
          default.expr it e);
      module_expr =
        (fun it (m : Parsetree.module_expr) ->
          (match m.pmod_desc with
          | Parsetree.Pmod_ident { txt; _ } -> check_module txt m.Parsetree.pmod_loc
          | _ -> ());
          default.module_expr it m);
    }
  in
  iterator.structure iterator structure;
  List.iter
    (fun (vb : Parsetree.value_binding) ->
      match mutable_allocator vb.pvb_expr with
      | Some head ->
        emit "global-mutable"
          (head
         ^ " bound at module top level: the cell is shared by every trial the pool \
            runs; allocate it per run instead")
          vb.pvb_loc
      | None -> ())
    (module_level_bindings structure);
  (List.rev !diags, !used)

let lint parsed =
  let results = List.map (fun (path, structure) -> lint_structure ~path structure) parsed in
  Diagnostics.sort
    (List.concat_map fst results
    @ Diagnostics.unused_allowlist ~file:"lib/check/source_lint.ml" ~linted:(List.map fst parsed)
        ~used:(List.concat_map snd results) allowlist)
