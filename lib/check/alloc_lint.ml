(* Hot-path allocation audit: which allocation sites are reachable from
   the annotated hot roots, and has each one been audited?

   The ROADMAP's zero-allocation goal for the engine's active-round path
   ("bit-packed channel and flat machine") is easy to regress silently: a
   refactor that closes over a loop variable, boxes a float, or builds a
   throwaway list inside [Engine.process_round] costs minor-GC pressure
   in every simulated round but changes no observable result.  This pass
   makes those regressions loud, statically:

   1. {b call graph} — {!Callgraph.build}/{!Callgraph.reachable} collects
      every let-bound function in the tree and walks the approximate call
      graph from the {!hot_roots} (engine round phases, channel
      resolution, the voting kernels);
   2. {b classification} — every syntactic allocation in a reachable
      function body is classified (closure / boxed-float / tuple / ref /
      list / array / string / partial-application);
   3. {b per-site audit} — each distinct (file, line, class) site is an
      error coded [alloc-<class>], located at the site, unless the
      {!allowlist} audits that code for that file.

   Like the other source passes this is purely syntactic and documented
   approximate: flambda may eliminate some flagged sites, float literals
   and unboxed float arithmetic are invisible (only the allocating
   operator/function spellings are matched), and higher-order calls are
   not followed.  The dynamic counterpart (the [words_per_active_round]
   gate of [securebit_cli compare]) catches whatever the syntax misses. *)

type alloc_class =
  | Closure
  | Boxed_float
  | Tuple
  | Ref_cell
  | List_alloc
  | Array_alloc
  | String_alloc
  | Partial_app

let class_label = function
  | Closure -> "closure"
  | Boxed_float -> "boxed-float"
  | Tuple -> "tuple"
  | Ref_cell -> "ref"
  | List_alloc -> "list"
  | Array_alloc -> "array"
  | String_alloc -> "string"
  | Partial_app -> "partial-application"

let code_of cls = "alloc-" ^ class_label cls

type site = {
  site_file : string;
  site_line : int;
  site_class : alloc_class;
  site_root : string;  (* hot-root group, e.g. "engine-round" *)
  site_fn : string;  (* qualified function, e.g. "Engine.process_round" *)
}

let codes =
  List.map code_of
    [ Closure; Boxed_float; Tuple; Ref_cell; List_alloc; Array_alloc; String_alloc; Partial_app ]
  @ [ "unused-allowlist"; "parse-error" ]

(* --- hot roots ----------------------------------------------------------- *)

(* The annotated hot paths: per-active-round work in the engine loop,
   channel resolution, and the per-observation voting kernels.  Root
   names are {!Callgraph.reachable} patterns (qualified suffixes), grouped
   so a diagnostic names the hot path, not only the function. *)
let hot_roots =
  [
    ("engine-round", [ "Engine.process_round"; "Engine.fan_out" ]);
    ("channel-resolve", [ "Channel.resolve"; "Channel.resolve_packed" ]);
    ("voting-index", [ "Voting.Index.add"; "Voting.Index.decide"; "Voting.Tally.add" ]);
    ("neighbor-vote", [ "Neighbor_watch.Vote.poll"; "Neighbor_watch.Vote.advance_agreement" ]);
  ]

(* --- allowlist ----------------------------------------------------------- *)

let allowlist_file = "lib/check/alloc_lint.ml"

(* Audited hot-path allocations, one entry per (file, code) pair, each
   with the audit's reason above it.  An entry covers every site of its
   class in its file, so audit a pair only when the reason holds for the
   whole file; a site of an unaudited class, or in an unaudited file, is
   an error.  Each entry records its definition line, where a stale audit
   is reported once the last site it covered is gone. *)
let allowlist =
  [
    (* Voting.window_inside tests window bounds built with -. and +. inside
       float comparisons, which ocamlopt keeps unboxed.  Voting.window_scan
       boxes [size] once per scan to pass it down the recursive scanners,
       and Index.decide scans only once the distinct-origin count meets
       the quorum. *)
    ("lib/core/voting.ml", "alloc-boxed-float", __LINE__);
    (* A real per-event allocation: Voting.Index.add conses each new
       evidence item onto its value's list (3 words per new item; a
       duplicate returns before it). *)
    ("lib/core/voting.ml", "alloc-list", __LINE__);
    (* The same cons cells: [x :: xs] parses as [::] applied to the pair
       [(x, xs)], which the classifier also counts as a tuple.  No second
       block is built. *)
    ("lib/core/voting.ml", "alloc-tuple", __LINE__);
    (* Channel.resolve_packed subtracts and scales float-array reads inside
       comparisons, which ocamlopt keeps unboxed.  Channel.resolve_scan
       boxes its running power sum per sensed transmission, but only the
       tests call that list-based reference resolution; the engine does
       not. *)
    ("lib/radio/channel.ml", "alloc-boxed-float", __LINE__);
    (* Set-up: Engine.slots_push sizes the payload array once per run, at
       the first transmission, whose payload fills it. *)
    ("lib/sim/engine.ml", "alloc-array", __LINE__);
    (* Engine.fan_out adds each link's power into a float array; the sum is
       stored unboxed. *)
    ("lib/sim/engine.ml", "alloc-boxed-float", __LINE__);
    (* Amortised growth: Calendar.grow doubles the heap arrays when full,
       and the engine creates its calendar with 2(n + 1) slots. *)
    ("lib/util/calendar.ml", "alloc-array", __LINE__);
    (* The sift loops' index refs in Calendar.add and Calendar.pop_min are
       local and never captured, so ocamlopt turns them into plain local
       variables. *)
    ("lib/util/calendar.ml", "alloc-ref", __LINE__);
    (* A real allocation: Rng.float returns its draw boxed (2 words, next
       to the 6 words Rng.int64 spends boxing its Int64 state and result).
       The engine reaches it only through Rng.bernoulli for packet loss, on
       channels with a positive loss probability. *)
    ("lib/util/rng.ml", "alloc-boxed-float", __LINE__);
  ]

(* --- classification ------------------------------------------------------ *)

let strip_stdlib h =
  if String.starts_with ~prefix:"Stdlib." h then String.sub h 7 (String.length h - 7) else h

let float_heads = [ "+."; "-."; "*."; "/."; "**"; "~-."; "float_of_int"; "Float.of_int" ]

let array_heads =
  [
    "Array.make"; "Array.init"; "Array.copy"; "Array.append"; "Array.sub"; "Array.of_list";
    "Array.make_matrix"; "Array.create_float"; "Array.map"; "Array.mapi";
  ]

let list_heads =
  [
    "List.rev"; "List.map"; "List.mapi"; "List.init"; "List.filter"; "List.filter_map";
    "List.concat"; "List.concat_map"; "List.append"; "@"; "List.rev_append"; "List.sort";
    "List.sort_uniq"; "List.of_seq"; "Array.to_list";
  ]

let string_heads =
  [
    "String.concat"; "String.sub"; "String.make"; "String.init"; "Printf.sprintf";
    "Format.asprintf"; "^"; "Bytes.create"; "Bytes.make"; "Bytes.sub"; "Bytes.copy";
    "Bytes.to_string"; "Bytes.of_string"; "string_of_int"; "string_of_float";
  ]

(* Peel a function's own parameters so its currying is not reported as
   closure allocation; only what the body allocates per call counts. *)
let rec strip_params e =
  let p = Callgraph.peel e in
  match p.Parsetree.pexp_desc with
  | Parsetree.Pexp_fun (_, _, _, body) | Parsetree.Pexp_newtype (_, body) -> strip_params body
  | _ -> p

let sites_of_fn graph ~root (fn : Callgraph.fn_info) =
  let body = strip_params fn.Callgraph.fn_body in
  let acc = ref [] in
  let add e cls =
    acc :=
      {
        site_file = fn.Callgraph.fn_file;
        site_line = Callgraph.line_of e.Parsetree.pexp_loc;
        site_class = cls;
        site_root = root;
        site_fn = fn.Callgraph.fn_qual;
      }
      :: !acc
  in
  Callgraph.iter_expr
    (fun e ->
      match e.Parsetree.pexp_desc with
      (* [body] itself may be a [function]-style match — that is the
         function's own currying, not a per-call closure. *)
      | (Parsetree.Pexp_fun _ | Parsetree.Pexp_function _ | Parsetree.Pexp_newtype _)
        when e != body ->
        add e Closure
      | Parsetree.Pexp_tuple _ -> add e Tuple
      | Parsetree.Pexp_array _ -> add e Array_alloc
      | Parsetree.Pexp_construct ({ txt = Longident.Lident "::"; _ }, _) -> add e List_alloc
      | Parsetree.Pexp_apply (f, args) -> (
        match Option.map strip_stdlib (Callgraph.head_ident f) with
        | Some "ref" -> add e Ref_cell
        | Some h when List.mem h float_heads -> add e Boxed_float
        | Some h when List.mem h array_heads -> add e Array_alloc
        | Some h when List.mem h list_heads -> add e List_alloc
        | Some h when List.mem h string_heads -> add e String_alloc
        | Some h ->
          (* Applying a known function to fewer arguments than it takes
             builds a partial-application closure. *)
          let nargs = List.length args in
          let candidates = Callgraph.resolve graph ~file:fn.Callgraph.fn_file h in
          if candidates <> [] && List.exists (fun c -> c.Callgraph.fn_arity > nargs) candidates
          then add e Partial_app
        | None -> ())
      | _ -> ())
    body;
  List.rev !acc

(* --- per-site audit ------------------------------------------------------ *)

(* One error per distinct (file, line, class) site reachable from [roots],
   named by the first root and function that reach it, unless the
   allowlist audits its code for its file.  Stale entries are judged only
   for the files of the reached functions: a run that reaches no hot root
   (say, over lib/util alone) accuses no entry. *)
let lint ?(roots = hot_roots) parsed =
  let graph = Callgraph.build parsed in
  let reached =
    List.concat_map
      (fun (root, patterns) ->
        List.map (fun fn -> (root, fn)) (Callgraph.reachable graph ~roots:patterns))
      roots
  in
  let same a b =
    a.site_file = b.site_file && a.site_line = b.site_line && a.site_class = b.site_class
  in
  let sites =
    List.fold_left
      (fun seen site -> if List.exists (same site) seen then seen else site :: seen)
      []
      (List.concat_map (fun (root, fn) -> sites_of_fn graph ~root fn) reached)
  in
  let used = ref [] in
  let diags =
    List.filter_map
      (fun s ->
        let code = code_of s.site_class in
        match Diagnostics.allowed allowlist s.site_file code with
        | Some entry ->
          if not (List.mem entry !used) then used := entry :: !used;
          None
        | None ->
          Some
            {
              Diagnostics.severity = Error;
              loc = Line (s.site_file, s.site_line);
              code;
              message =
                Printf.sprintf
                  "%s allocation in %s on hot path %s; keep the path allocation-free or audit \
                   (%s, %s) in %s"
                  (class_label s.site_class) s.site_fn s.site_root s.site_file code allowlist_file;
            })
      (List.rev sites)
  in
  let linted = List.map (fun (_, fn) -> fn.Callgraph.fn_file) reached in
  Diagnostics.sort
    (diags @ Diagnostics.unused_allowlist ~file:allowlist_file ~linted ~used:!used allowlist)

(* --- seed violation ------------------------------------------------------ *)

(* A one-module demo of the regression class this analyzer exists for: a
   fake hot root whose round function boxes floats, builds a closure and
   a throwaway list per call.  No entry audits the demo file, so every
   site is an error. *)
let seed_violation_files =
  [
    ( "lib/sim/hot_demo.ml",
      "(* seed-violation demo: an allocating fake hot loop *)\n\
       let resolve_cell x y = (x *. y, x +. y)\n\n\
       let process_round cells =\n\
      \  let boxed = List.map (fun c -> c *. 2.0) cells in\n\
      \  let pairs = List.map (fun c -> resolve_cell c c) boxed in\n\
      \  List.length pairs\n" );
  ]

let seed_violation_roots = [ ("demo-round", [ "Hot_demo.process_round" ]) ]
