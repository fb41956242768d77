(* Domain-safety lint: which mutable state could a task handed to the
   deterministic job pool share with another domain?

   The byte-identical [--jobs N] guarantee rests on the closures executed
   by [Pool.map_array]/[Pool.map_list]/[Domain.spawn] touching no
   unsynchronized mutable state.  This pass answers that question
   statically, on the whole tree at once:

   1. {b globals} — every module's escaping mutable state: top-level
      [ref]/[Array.make]/[Hashtbl.create]/[Buffer.create]-style bindings;
   2. {b capture analysis} — a conservative intra-file call/capture
      summary: from each task expression handed to a pool primitive, follow
      same-file function references transitively and collect every read of
      a top-level mutable global (same module unqualified, other modules
      qualified) and every write to a mutable binding allocated outside the
      task;
   3. {b layer policy} — lib/core and lib/sim must be state-free at
      toplevel (per-run state lives in values the run constructs), so any
      top-level mutable binding there is an error regardless of pool use.

   Like Source_lint this is purely syntactic — no typing, no cross-module
   call summaries (a task calling [M.helper] which touches [M.state] is
   invisible; referencing [M.state] directly is not).  The rules target the
   spellings idiomatic code actually uses, and the allowlist records the
   audited exceptions. *)

(* What a top-level mutable binding allocates.  [Atom] ([Atomic.make]) is
   collected but never flagged: atomics are the sanctioned cross-domain
   cell. *)
type kind = Ref | Arr | Tbl | Buf | Byt | Que | Stk | Atom

let kind_label = function
  | Ref -> "ref"
  | Arr -> "Array.make"
  | Tbl -> "Hashtbl.create"
  | Buf -> "Buffer.create"
  | Byt -> "Bytes.create"
  | Que -> "Queue.create"
  | Stk -> "Stack.create"
  | Atom -> "Atomic.make"

type global = {
  gmodule : string;  (* "Voting" for lib/core/voting.ml *)
  gfile : string;
  gname : string;
  gkind : kind;
  gline : int;
}

let codes =
  [ "global-mutable-core"; "shared-mutable"; "capture-mutates"; "unused-allowlist"; "parse-error" ]

(* Audited-sound uses.  The pool's own workers write disjoint result/stat
   slots (index-partitioned, never the same cell from two domains); the
   test suite deliberately builds racy tasks to prove the sanitizer fires;
   the committed fixture is the static half of that same proof.  Each
   entry records its definition line, where a stale audit is reported. *)
let allowlist =
  [
    ("lib/run/pool.ml", "capture-mutates", __LINE__);
    ("test/test_run.ml", "capture-mutates", __LINE__);
    ("test/fixtures/racy_counter.ml", "shared-mutable", __LINE__);
  ]

(* --- expression helpers -------------------------------------------------- *)

(* The generic Parsetree machinery (reference/write extraction, binding
   summaries, the same-file reachability engine) lives in {!Callgraph},
   shared with [Alloc_lint]; this lint keeps only the mutable-state
   specific parts. *)

let module_of_path = Callgraph.module_of_path
let line_of = Callgraph.line_of
let peel = Callgraph.peel
let head_ident = Callgraph.head_ident

type write = Callgraph.write = { target : string; wline : int }

(* Does this right-hand side allocate a mutable value? *)
let alloc_kind e =
  match (peel e).Parsetree.pexp_desc with
  | Parsetree.Pexp_apply (f, _) -> (
    match head_ident f with
    | Some ("ref" | "Stdlib.ref") -> Some Ref
    | Some
        ( "Array.make" | "Array.create_float" | "Array.init" | "Array.make_matrix"
        | "Stdlib.Array.make" ) ->
      Some Arr
    | Some ("Hashtbl.create" | "Stdlib.Hashtbl.create") -> Some Tbl
    | Some "Buffer.create" -> Some Buf
    | Some ("Bytes.create" | "Bytes.make") -> Some Byt
    | Some "Queue.create" -> Some Que
    | Some "Stack.create" -> Some Stk
    | Some "Atomic.make" -> Some Atom
    | _ -> None)
  | _ -> None

let is_function = Callgraph.is_function
let pattern_var = Callgraph.pattern_var

(* --- per-file facts ------------------------------------------------------ *)

type task_entry =
  | Lambda of { refs : string list; writes : write list }
      (* refs/writes already filtered of the lambda's own bindings *)
  | Named of string
  | Opaque

type pool_site = { ps_line : int; ps_callee : string; ps_task : task_entry }

(* A binding's escaping refs/writes (everything it mentions minus its own
   bound names). *)
type fn_summary = Callgraph.summary = { fn_refs : string list; fn_writes : write list }

type facts = {
  fpath : string;
  ftoplevel : global list;
  fbindings : (string * fn_summary) list;  (* let-bound functions, any depth *)
  fmutable_lets : (string * kind) list;  (* mutable allocations, any depth *)
  fsites : pool_site list;
}

let pool_callees = [ "Pool.map_array"; "Pool.map_list"; "Domain.spawn" ]

let task_entry_of_arg arg =
  let arg = peel arg in
  if is_function arg then begin
    let { fn_refs = refs; fn_writes = writes } = Callgraph.summarize arg in
    Lambda { refs; writes }
  end
  else
    match head_ident arg with
    | Some name when not (String.contains name '.') -> Named name
    | Some _ | None -> Opaque

let facts_of_structure ~path structure =
  let gmodule = module_of_path path in
  let bindings = ref [] in
  let mutable_lets = ref [] in
  let sites = ref [] in
  let default = Ast_iterator.default_iterator in
  let iterator =
    {
      default with
      value_binding =
        (fun it (vb : Parsetree.value_binding) ->
          (match pattern_var vb.pvb_pat with
          | Some name -> (
            match alloc_kind vb.pvb_expr with
            | Some kind -> mutable_lets := (name, kind) :: !mutable_lets
            | None ->
              if is_function vb.pvb_expr then
                bindings := (name, Callgraph.summarize vb.pvb_expr) :: !bindings)
          | None -> ());
          default.value_binding it vb);
      expr =
        (fun it (e : Parsetree.expression) ->
          (match e.Parsetree.pexp_desc with
          | Parsetree.Pexp_apply (f, args) -> (
            match head_ident f with
            | Some callee when List.mem callee pool_callees -> (
              match List.find_opt (fun (l, _) -> l = Asttypes.Nolabel) args with
              | Some (_, arg) ->
                sites :=
                  {
                    ps_line = line_of e.Parsetree.pexp_loc;
                    ps_callee = callee;
                    ps_task = task_entry_of_arg arg;
                  }
                  :: !sites
              | None -> ())
            | _ -> ())
          | _ -> ());
          default.expr it e);
    }
  in
  iterator.structure iterator structure;
  (* Top-level mutable bindings: walk the structure items directly so only
     depth-0 lets count as module state. *)
  let toplevel =
    List.concat_map
      (fun (item : Parsetree.structure_item) ->
        match item.pstr_desc with
        | Parsetree.Pstr_value (_, vbs) ->
          List.filter_map
            (fun (vb : Parsetree.value_binding) ->
              match (pattern_var vb.pvb_pat, alloc_kind vb.pvb_expr) with
              | Some name, Some kind ->
                Some
                  {
                    gmodule;
                    gfile = path;
                    gname = name;
                    gkind = kind;
                    gline = line_of vb.pvb_loc;
                  }
              | _ -> None)
            vbs
        | _ -> [])
      structure
  in
  {
    fpath = path;
    ftoplevel = toplevel;
    fbindings = !bindings;
    fmutable_lets = !mutable_lets;
    fsites = List.rev !sites;
  }

(* --- capture analysis ---------------------------------------------------- *)

(* Transitive same-file reachability from a task entry — the engine is
   {!Callgraph.reach}, which preserves this lint's original traversal and
   accumulation order exactly. *)
let reach facts entry =
  let entry =
    match entry with
    | Lambda { refs; writes } -> Callgraph.Body { fn_refs = refs; fn_writes = writes }
    | Named name -> Callgraph.Binding name
    | Opaque -> Callgraph.Opaque
  in
  Callgraph.reach ~bindings:facts.fbindings entry

let split_qualified name =
  match List.rev (String.split_on_char '.' name) with
  | leaf :: md :: _ -> Some (md, leaf)
  | _ -> None

(* --- whole-tree lint ----------------------------------------------------- *)

let state_free_dirs = [ "lib/core"; "lib/sim" ]

let lint parsed_files =
  let facts = List.map (fun (path, structure) -> facts_of_structure ~path structure) parsed_files in
  let all_globals = List.concat_map (fun f -> f.ftoplevel) facts in
  let find_global ~md ~name =
    List.find_opt (fun g -> g.gmodule = md && g.gname = name) all_globals
  in
  let diags = ref [] in
  let used = ref [] in
  let emit ~file ~line code message =
    match Diagnostics.allowed allowlist file code with
    | Some entry -> if not (List.mem entry !used) then used := entry :: !used
    | None ->
      diags := { Diagnostics.severity = Error; loc = Line (file, line); code; message } :: !diags
  in
  (* Layer policy: lib/core and lib/sim keep no module-level mutable state
     (the pool runs whole trials through those layers on several domains at
     once, so they must be re-entrant). *)
  List.iter
    (fun g ->
      if List.exists (fun dir -> Diagnostics.in_dir dir g.gfile) state_free_dirs then
        emit ~file:g.gfile ~line:g.gline "global-mutable-core"
          (Printf.sprintf
             "top-level mutable binding %s (%s): %s must be state-free at toplevel so pool \
              workers can run trials on separate domains"
             g.gname (kind_label g.gkind)
             (String.concat " and " state_free_dirs)))
    all_globals;
  (* Capture analysis per pool call site. *)
  List.iter
    (fun f ->
      let own_global name =
        List.find_opt (fun g -> g.gname = name && g.gfile = f.fpath) f.ftoplevel
      in
      let mutable_let name =
        List.filter_map (fun (n, k) -> if n = name then Some k else None) f.fmutable_lets
      in
      List.iter
        (fun site ->
          let refs, writes = reach f site.ps_task in
          let seen = Hashtbl.create 8 in
          let once key emit_it =
            if not (Hashtbl.mem seen key) then begin
              Hashtbl.add seen key ();
              emit_it ()
            end
          in
          let flag_global ?(line = site.ps_line) ~access g =
            if g.gkind <> Atom then
              once
                ("shared", g.gmodule ^ "." ^ g.gname)
                (fun () ->
                  emit ~file:f.fpath ~line "shared-mutable"
                    (Printf.sprintf
                       "task passed to %s %s top-level mutable state %s.%s (%s at %s:%d) without \
                        Atomic synchronization; pool tasks must be self-contained for --jobs N \
                        determinism"
                       site.ps_callee access g.gmodule g.gname (kind_label g.gkind) g.gfile
                       g.gline))
          in
          (* Reads (or any reference) of top-level mutable globals. *)
          List.iter
            (fun r ->
              match split_qualified r with
              | Some (md, name) -> (
                match find_global ~md ~name with
                | Some g -> flag_global ~access:"references" g
                | None -> ())
              | None -> (
                match own_global r with
                | Some g -> flag_global ~access:"references" g
                | None -> ()))
            refs;
          (* Writes to mutable state allocated outside the task. *)
          List.iter
            (fun w ->
              match split_qualified w.target with
              | Some (md, name) -> (
                match find_global ~md ~name with
                | Some g -> flag_global ~line:w.wline ~access:"writes" g
                | None -> ())
              | None -> (
                match own_global w.target with
                | Some g -> flag_global ~line:w.wline ~access:"writes" g
                | None ->
                  let kinds = mutable_let w.target in
                  if kinds <> [] && not (List.mem Atom kinds) then
                    once
                      ("capture", w.target)
                      (fun () ->
                        emit ~file:f.fpath ~line:w.wline "capture-mutates"
                          (Printf.sprintf
                             "task passed to %s mutates captured mutable binding %s (%s allocated \
                              outside the task); parallel tasks must not share unsynchronized \
                              state"
                             site.ps_callee w.target
                             (String.concat "/" (List.map kind_label kinds))))))
            writes)
        f.fsites)
    facts;
  Diagnostics.sort
    (!diags
    @ Diagnostics.unused_allowlist ~file:"lib/check/share_lint.ml"
        ~linted:(List.map fst parsed_files) ~used:!used allowlist)

(* --- seed violation ------------------------------------------------------ *)

(* A two-module demo of exactly the bug class the analyzer exists for: a
   sim-layer module keeps a top-level cache, and an analysis-layer sweep
   hands the pool a task that hits that cache, bumps a module-level
   counter through a helper, and appends to a buffer captured from the
   enclosing scope.  All three layers of diagnosis fire. *)
let seed_violation_files =
  [
    ( "lib/sim/seed_cache.ml",
      "(* seed-violation demo: module-level cache in the sim layer *)\n\
       let cache = Hashtbl.create 64\n\
       let lookup k = Hashtbl.find_opt cache k\n" );
    ( "lib/analysis/seed_sweep.ml",
      "(* seed-violation demo: pool tasks sharing unsynchronized state *)\n\
       let hits = ref 0\n\
       let record n = hits := !hits + n\n\n\
       let sweep specs =\n\
      \  let log = Buffer.create 16 in\n\
      \  Pool.map_array ~jobs:4\n\
      \    (fun spec ->\n\
      \       record spec;\n\
      \       Buffer.add_string log \"cell\\n\";\n\
      \       (match Seed_cache.lookup spec with\n\
      \        | Some cost -> cost\n\
      \        | None ->\n\
      \          let cost = 2 * spec in\n\
      \          Hashtbl.replace Seed_cache.cache spec cost;\n\
      \          cost)\n\
      \       + !hits)\n\
      \    specs\n" );
  ]
