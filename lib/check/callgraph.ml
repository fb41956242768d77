(* Approximate interprocedural call graph over the repo's Parsetree.

   Factored out of [Share_lint] so the source-level analyzers share one
   parse of the tree, one vocabulary of expression helpers
   (reference/write extraction, binding summaries) and one reachability
   engine:

   - [Share_lint] asks the {e same-file} question: starting from a task
     expression handed to a pool primitive, which module-level mutable
     state can transitively be touched?  That is {!reach}, preserved
     byte-for-byte from the original in-lint implementation (accumulation
     order included) so the share-lint goldens cannot move.
   - [Alloc_lint] asks the {e whole-tree} question: which functions are
     reachable from a set of annotated hot roots ("Engine.process_round",
     "Voting.Index.add", ...)?  That is {!build}/{!reachable}.

   Everything here is purely syntactic (Parsetree, no typing): unqualified
   references resolve to same-file bindings of that name (all of them —
   duplicates union, conservative in the right direction), qualified
   references resolve to any function whose module-qualified name matches
   the reference as a suffix ("Index.add" reaches "Voting.Index.add").
   Higher-order flow, functors and shadowing are invisible; the analyzers
   built on top document themselves as approximate accordingly. *)

let module_of_path path =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename path))

let line_of (loc : Location.t) = loc.Location.loc_start.Lexing.pos_lnum

let rec peel (e : Parsetree.expression) =
  match e.pexp_desc with
  | Parsetree.Pexp_constraint (e, _) | Parsetree.Pexp_coerce (e, _, _) -> peel e
  | _ -> e

let head_ident e =
  match (peel e).Parsetree.pexp_desc with
  | Parsetree.Pexp_ident { txt; _ } -> Some (String.concat "." (Longident.flatten txt))
  | _ -> None

let iter_expr f e =
  let default = Ast_iterator.default_iterator in
  let it = { default with expr = (fun it e -> f e; default.expr it e) } in
  it.expr it e

(* All value-path references in an expression, as dotted strings. *)
let refs_of_expr e =
  let acc = ref [] in
  iter_expr
    (fun e ->
      match e.Parsetree.pexp_desc with
      | Parsetree.Pexp_ident { txt; _ } -> acc := String.concat "." (Longident.flatten txt) :: !acc
      | _ -> ())
    e;
  !acc

(* Every value name bound anywhere inside an expression: function
   parameters, let patterns, match cases, for-loop indices.  Used to
   separate a binding's own state from captured state. *)
let bound_names_of_expr e =
  let acc = ref [] in
  let default = Ast_iterator.default_iterator in
  let it =
    {
      default with
      pat =
        (fun it (p : Parsetree.pattern) ->
          (match p.ppat_desc with
          | Parsetree.Ppat_var { txt; _ } | Parsetree.Ppat_alias (_, { txt; _ }) ->
            acc := txt :: !acc
          | _ -> ());
          default.pat it p);
      expr =
        (fun it (e : Parsetree.expression) ->
          (match e.Parsetree.pexp_desc with
          | Parsetree.Pexp_for ({ ppat_desc = Parsetree.Ppat_var { txt; _ }; _ }, _, _, _, _) ->
            acc := txt :: !acc
          | _ -> ());
          default.expr it e);
    }
  in
  it.expr it e;
  !acc

(* Syntactic mutation sites: [x := e], [incr]/[decr], [a.(i) <- v] (the
   parser spells it [Array.set]), record-field assignment, and the
   imperative container operations.  The recorded target is the head
   identifier being mutated. *)
let writer_heads =
  [
    ":="; "incr"; "decr"; "Array.set"; "Array.unsafe_set"; "Array.fill"; "Array.blit"; "Bytes.set";
    "Bytes.fill"; "Bytes.blit"; "Hashtbl.add"; "Hashtbl.replace"; "Hashtbl.remove"; "Hashtbl.reset";
    "Hashtbl.clear"; "Buffer.add_string"; "Buffer.add_char"; "Buffer.add_bytes";
    "Buffer.add_substring"; "Buffer.add_buffer"; "Buffer.clear"; "Buffer.reset"; "Queue.add";
    "Queue.push"; "Queue.pop"; "Queue.take"; "Queue.clear"; "Queue.transfer"; "Stack.push";
    "Stack.pop"; "Stack.clear";
  ]

let is_writer h = List.mem h writer_heads || List.mem h (List.map (( ^ ) "Stdlib.") writer_heads)

type write = { target : string; wline : int }

let writes_of_expr e =
  let acc = ref [] in
  iter_expr
    (fun e ->
      match e.Parsetree.pexp_desc with
      | Parsetree.Pexp_setfield (target, _, _) -> (
        match head_ident target with
        | Some t -> acc := { target = t; wline = line_of e.Parsetree.pexp_loc } :: !acc
        | None -> ())
      | Parsetree.Pexp_apply (f, args) -> (
        match head_ident f with
        | Some h when is_writer h -> (
          match List.find_opt (fun (l, _) -> l = Asttypes.Nolabel) args with
          | Some (_, a) -> (
            match head_ident a with
            | Some t -> acc := { target = t; wline = line_of e.Parsetree.pexp_loc } :: !acc
            | None -> ())
          | None -> ())
        | _ -> ())
      | _ -> ())
    e;
  !acc

let is_function e =
  match (peel e).Parsetree.pexp_desc with
  | Parsetree.Pexp_fun _ | Parsetree.Pexp_function _ | Parsetree.Pexp_newtype _ -> true
  | _ -> false

let pattern_var (p : Parsetree.pattern) =
  let rec go (p : Parsetree.pattern) =
    match p.ppat_desc with
    | Parsetree.Ppat_var { txt; _ } -> Some txt
    | Parsetree.Ppat_constraint (p, _) -> go p
    | _ -> None
  in
  go p

(* --- the shared parse ------------------------------------------------------ *)

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

(* Every source analyzer lints the output of this one parse, which is the
   only place a parse-error diagnostic is built. *)
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

(* --- binding summaries and same-file reachability ------------------------ *)

type summary = { fn_refs : string list; fn_writes : write list }

let summarize e =
  let bound = bound_names_of_expr e in
  let fn_refs = List.filter (fun r -> not (List.mem r bound)) (refs_of_expr e) in
  let fn_writes = List.filter (fun w -> not (List.mem w.target bound)) (writes_of_expr e) in
  { fn_refs; fn_writes }

type entry = Body of summary | Binding of string | Opaque

(* Transitive same-file reachability from an entry: the union of all
   references and escaping writes of the entry and of every same-file
   function it can call.  Duplicate binding names are unioned, which is
   conservative in the right direction.  The traversal and accumulation
   order are exactly [Share_lint]'s original ones (its goldens depend on
   them). *)
let reach ~bindings entry =
  let visited = Hashtbl.create 16 in
  let refs = ref [] in
  let writes = ref [] in
  let rec follow name =
    if not (Hashtbl.mem visited name) then begin
      Hashtbl.add visited name ();
      List.iter
        (fun (n, summary) ->
          if n = name then begin
            refs := summary.fn_refs @ !refs;
            writes := summary.fn_writes @ !writes;
            List.iter (fun r -> if not (String.contains r '.') then follow r) summary.fn_refs
          end)
        bindings
    end
  in
  (match entry with
  | Body { fn_refs; fn_writes } ->
    refs := fn_refs;
    writes := fn_writes;
    List.iter (fun r -> if not (String.contains r '.') then follow r) fn_refs
  | Binding name -> follow name
  | Opaque -> ());
  (!refs, !writes)

(* --- whole-tree function inventory and root reachability ----------------- *)

type fn_info = {
  fn_name : string;
  fn_qual : string;
  fn_file : string;
  fn_line : int;
  fn_arity : int;
  fn_body : Parsetree.expression;
  fn_summary : summary;
}

type t = { fns : fn_info list }

let arity_of e =
  let rec go n e =
    match (peel e).Parsetree.pexp_desc with
    | Parsetree.Pexp_fun (_, _, _, body) -> go (n + 1) body
    | Parsetree.Pexp_newtype (_, body) -> go n body
    | Parsetree.Pexp_function _ -> n + 1
    | _ -> n
  in
  go 0 e

(* Every let-bound function in one file, any depth, in encounter order,
   qualified by the enclosing module path ("Voting.Index.add" for
   [module Index = struct let add ... end] in voting.ml; nested lets take
   the module path only, so [let process_round] inside [Engine.run] is
   "Engine.process_round"). *)
let fns_of_structure ~path structure =
  let acc = ref [] in
  let stack = ref [ module_of_path path ] in
  let default = Ast_iterator.default_iterator in
  let it =
    {
      default with
      module_binding =
        (fun it (mb : Parsetree.module_binding) ->
          let saved = !stack in
          (match mb.pmb_name.Location.txt with
          | Some name -> stack := !stack @ [ name ]
          | None -> ());
          default.module_binding it mb;
          stack := saved);
      value_binding =
        (fun it (vb : Parsetree.value_binding) ->
          (match pattern_var vb.pvb_pat with
          | Some name when is_function vb.pvb_expr ->
            acc :=
              {
                fn_name = name;
                fn_qual = String.concat "." (!stack @ [ name ]);
                fn_file = path;
                fn_line = line_of vb.pvb_loc;
                fn_arity = arity_of vb.pvb_expr;
                fn_body = vb.pvb_expr;
                fn_summary = summarize vb.pvb_expr;
              }
              :: !acc
          | Some _ | None -> ());
          default.value_binding it vb);
    }
  in
  it.structure it structure;
  List.rev !acc

let build parsed_files =
  { fns = List.concat_map (fun (path, structure) -> fns_of_structure ~path structure) parsed_files }

(* A qualified name [q] matches a reference or root [r] when it is [r]
   itself or ends in ".r" — "Index.add" written inside voting.ml matches
   "Voting.Index.add".  Ambiguous suffixes union (conservative). *)
let qual_matches ~qual r = qual = r || String.ends_with ~suffix:("." ^ r) qual

let resolve t ~file r =
  if String.contains r '.' then List.filter (fun fn -> qual_matches ~qual:fn.fn_qual r) t.fns
  else List.filter (fun fn -> fn.fn_file = file && fn.fn_name = r) t.fns

(* Depth-first closure over {!resolve} from every function matching a
   root, in deterministic discovery order. *)
let reachable t ~roots =
  let visited = Hashtbl.create 64 in
  let key fn = Printf.sprintf "%s:%d:%s" fn.fn_file fn.fn_line fn.fn_qual in
  let out = ref [] in
  let rec visit fn =
    let k = key fn in
    if not (Hashtbl.mem visited k) then begin
      Hashtbl.add visited k ();
      out := fn :: !out;
      List.iter
        (fun r -> List.iter visit (resolve t ~file:fn.fn_file r))
        fn.fn_summary.fn_refs
    end
  in
  List.iter
    (fun root -> List.iter visit (List.filter (fun fn -> qual_matches ~qual:fn.fn_qual root) t.fns))
    roots;
  List.rev !out
