(* Hot-path allocation inventory: which allocation sites are reachable
   from the annotated hot roots, and did the set grow?

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
   3. {b golden diff} — the classified counts are diffed against the
      committed [ALLOC_baseline.json]: a class a hot root did not
      previously allocate is an {b error}, growth within a known class a
      {b warning}, shrinkage an {b info} nudge to refresh the baseline.

   Like the other source passes this is purely syntactic and documented
   approximate: flambda may eliminate some flagged sites, float literals
   and unboxed float arithmetic are invisible (only the allocating
   operator/function spellings are matched), and higher-order calls are
   not followed.  The {!allowlist} records audited sites — each entry
   carries the justification string shown in [--json] — and the dynamic
   counterpart (the [words_per_active_round] gate of [securebit_cli compare])
   catches whatever the syntax misses. *)

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

type site = {
  site_file : string;
  site_line : int;
  site_class : alloc_class;
  site_root : string;  (* hot-root group, e.g. "engine-round" *)
  site_fn : string;  (* qualified function, e.g. "Engine.process_round" *)
}

let codes =
  [
    "new-alloc-class"; "alloc-count-growth"; "alloc-count-shrink"; "baseline-missing";
    "unused-allowlist"; "parse-error";
  ]

let severity_of : string -> Diagnostics.severity = function
  | "alloc-count-growth" -> Warning
  | "alloc-count-shrink" -> Info
  | _ -> Error

(* --- hot roots ----------------------------------------------------------- *)

(* The annotated hot paths: per-active-round work in the engine loop,
   channel resolution, and the per-observation voting kernels.  Root
   names are {!Callgraph.reachable} patterns (qualified suffixes), grouped
   so the inventory reads per hot path, not per function. *)
let hot_roots =
  [
    ("engine-round", [ "Engine.process_round"; "Engine.fan_out" ]);
    ("channel-resolve", [ "Channel.resolve"; "Channel.resolve_packed" ]);
    ("voting-index", [ "Voting.Index.add"; "Voting.Index.decide"; "Voting.Tally.add" ]);
    ("neighbor-vote", [ "Neighbor_watch.Vote.poll"; "Neighbor_watch.Vote.advance_agreement" ]);
  ]

(* --- allowlist ----------------------------------------------------------- *)

(* Audited hot-path allocations.  Matching sites are removed before the
   golden diff; every entry must keep matching at least one site or the
   stale audit itself becomes an error (pointing here, at [al_line]). *)
type allow = {
  al_file : string;  (* repo-relative file the site lives in *)
  al_class : string;  (* class label the audit covers *)
  al_fn : string option;  (* qualified function; None = anywhere in the file *)
  al_why : string;  (* justification, surfaced in --json output *)
  al_line : int;  (* definition line below, for stale-entry diagnostics *)
}

let allowlist_file = "lib/check/alloc_lint.ml"

(* Currently empty: the tap-only trace digest that used to be audited here
   moved off the hot functions entirely (the engine mirrors transmitter ids
   into a preallocated per-slot array and builds the trace record in the
   driver loop, which no hot root reaches). *)
let allowlist : allow list = []

let allow_matches allow site =
  Diagnostics.path_matches ~entry:allow.al_file site.site_file
  && allow.al_class = class_label site.site_class
  && match allow.al_fn with None -> true | Some fn -> fn = site.site_fn

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

(* All classified sites reachable from the roots, allowlist applied;
   returns the surviving sites and the allowlist entries that fired. *)
let sites_of_parsed ?(roots = hot_roots) parsed_files =
  let graph = Callgraph.build parsed_files in
  let sites =
    List.concat_map
      (fun (root, patterns) ->
        let fns = Callgraph.reachable graph ~roots:patterns in
        List.concat_map (fun fn -> sites_of_fn graph ~root fn) fns)
      roots
  in
  let used = ref [] in
  let kept =
    List.filter
      (fun site ->
        match List.find_opt (fun a -> allow_matches a site) allowlist with
        | Some entry ->
          if not (List.memq entry !used) then used := entry :: !used;
          false
        | None -> true)
      sites
  in
  (kept, List.rev !used)

(* --- inventory ----------------------------------------------------------- *)

(* Counts of distinct (file, line, class) sites per root per class,
   canonically sorted so the JSON is diffable. *)
let inventory_of_sites sites =
  let dedup =
    List.sort_uniq
      (fun a b ->
        match String.compare a.site_root b.site_root with
        | 0 -> (
          match String.compare a.site_file b.site_file with
          | 0 -> (
            match Int.compare a.site_line b.site_line with
            | 0 -> String.compare (class_label a.site_class) (class_label b.site_class)
            | c -> c)
          | c -> c)
        | c -> c)
      sites
  in
  let roots = List.sort_uniq String.compare (List.map (fun s -> s.site_root) dedup) in
  List.map
    (fun root ->
      let here = List.filter (fun s -> s.site_root = root) dedup in
      let labels = List.sort_uniq String.compare (List.map (fun s -> class_label s.site_class) here) in
      ( root,
        List.map
          (fun label ->
            (label, List.length (List.filter (fun s -> class_label s.site_class = label) here)))
          labels ))
    roots

let schema = "securebit-alloc/1"

let json_of_inventory inventory =
  Json.Obj
    [
      ("schema", Json.String schema);
      ( "roots",
        Json.List
          (List.map
             (fun (root, classes) ->
               Json.Obj
                 [
                   ("root", Json.String root);
                   ("classes", Json.Obj (List.map (fun (label, n) -> (label, Json.Int n)) classes));
                 ])
             inventory) );
    ]

let inventory_of_json json =
  match Json.member "roots" json |> Option.map Json.to_list_opt with
  | Some (Some roots) ->
    let entry e =
      match (Option.bind (Json.member "root" e) Json.to_string_opt, Json.member "classes" e) with
      | Some root, Some (Json.Obj fields) ->
        let classes =
          List.filter_map
            (fun (label, v) -> Option.map (fun n -> (label, int_of_float n)) (Json.to_float_opt v))
            fields
        in
        Ok (root, classes)
      | Some root, _ -> Error (Printf.sprintf "root %s has no classes object" root)
      | None, _ -> Error "root entry without a name"
    in
    List.fold_left
      (fun acc e ->
        match (acc, entry e) with
        | Ok entries, Ok entry -> Ok (entry :: entries)
        | (Error _ as err), _ | _, (Error _ as err) -> err)
      (Ok []) roots
    |> Result.map List.rev
  | Some None | None -> Error "no \"roots\" list (not a securebit-alloc baseline?)"

(* --- golden diff --------------------------------------------------------- *)

let count_in inventory root label =
  match List.assoc_opt root inventory with
  | Some classes -> ( match List.assoc_opt label classes with Some n -> n | None -> 0)
  | None -> 0

let refresh_hint = "refresh the golden inventory (see README: alloc-baseline refresh) if intended"

(* Diff the current inventory against the committed golden one.  [sites]
   locates the diagnostics: a new or grown class points at its first
   surviving site, a shrink at the baseline file itself. *)
let diff ~golden_name ~golden ~sites current =
  let diags = ref [] in
  let emit ~file ~line code message =
    diags :=
      { Diagnostics.severity = severity_of code; loc = Line (file, line); code; message } :: !diags
  in
  let first_site root label =
    List.find_opt (fun s -> s.site_root = root && class_label s.site_class = label) sites
  in
  List.iter
    (fun (root, classes) ->
      List.iter
        (fun (label, n) ->
          let was = count_in golden root label in
          let file, line =
            match first_site root label with
            | Some s -> (s.site_file, s.site_line)
            | None -> (golden_name, 0)
          in
          if was = 0 && n > 0 then
            emit ~file ~line "new-alloc-class"
              (Printf.sprintf
                 "hot path %s gained allocation class %s (%d site(s), golden inventory has none); \
                  keep the active-round path allocation-free or add an audited allowlist entry"
                 root label n)
          else if n > was then
            emit ~file ~line "alloc-count-growth"
              (Printf.sprintf "hot path %s grew %s allocation sites %d -> %d; %s" root label was n
                 refresh_hint))
        classes)
    current;
  List.iter
    (fun (root, classes) ->
      List.iter
        (fun (label, was) ->
          let now = count_in current root label in
          if now < was then
            emit ~file:golden_name ~line:0 "alloc-count-shrink"
              (Printf.sprintf "hot path %s shrank %s allocation sites %d -> %d; %s" root label was
                 now refresh_hint))
        classes)
    golden;
  List.rev !diags

(* --- whole-tree lint ----------------------------------------------------- *)

let default_golden_name = "ALLOC_baseline.json"

let baseline_missing ~golden_name message =
  [
    {
      Diagnostics.severity = Error;
      loc = Line (golden_name, 0);
      code = "baseline-missing";
      message;
    };
  ]

let lint ?roots ?(golden_name = default_golden_name) ~golden parsed =
  let sites, used = sites_of_parsed ?roots parsed in
  let entry a = (a.al_file, a.al_class, a.al_line) in
  let unused =
    Diagnostics.unused_allowlist ~file:allowlist_file ~linted:(List.map fst parsed)
      ~used:(List.map entry used) (List.map entry allowlist)
  in
  let golden_diags =
    match golden with
    | None ->
      baseline_missing ~golden_name
        "no golden allocation inventory; generate one with securebit_lint lint alloc \
         --write-baseline"
    | Some json -> (
      match inventory_of_json json with
      | Ok golden -> diff ~golden_name ~golden ~sites (inventory_of_sites sites)
      | Error message ->
        baseline_missing ~golden_name (Printf.sprintf "golden inventory unreadable: %s" message))
  in
  Diagnostics.sort (unused @ golden_diags)

let sites ?roots parsed = fst (sites_of_parsed ?roots parsed)

let load_golden path =
  match In_channel.with_open_bin path In_channel.input_all with
  | contents -> ( match Json.of_string contents with Ok json -> Some json | Error _ -> Some Json.Null)
  | exception Sys_error _ -> None

(* --- seed violation ------------------------------------------------------ *)

(* A one-module demo of the regression class this analyzer exists for: a
   fake hot root whose round function boxes floats, builds a closure and
   a throwaway list per call.  Diffed against an empty golden inventory,
   every class fires as a new-alloc-class error. *)
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

let empty_golden = Json.Obj [ ("schema", Json.String schema); ("roots", Json.List []) ]

let seed_violation () =
  lint ~roots:seed_violation_roots ~golden:(Some empty_golden)
    (fst (Callgraph.parse seed_violation_files))
