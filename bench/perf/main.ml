(* Layer-accounted broadcast benchmark.

     main.exe --workload NAME [--seed S] [--seconds T] [--trace 0|1] [--json FILE]

   runs one workload (see workloads.ml) in this process, on one domain,
   and prints every metric by name with its unit; the last line of
   standard output is one JSON object {correct, attempted, failed,
   metrics}.  Without --seconds it runs the workload's broadcast list
   once; with it, it replays the list back to back until T seconds have
   passed (always at least one broadcast).

   --trace 0 (the gate tier) times untraced [Scenario.run ~topology] calls
   and reports the end-to-end metrics.  --trace 1 (the trace tier) also
   runs every broadcast through Traced, whose wrapped machines count and
   time each layer, checks the traced engine result against the untraced
   one, and reports the per-layer metrics instead.

   Every broadcast is checked: its outcome digest must match
   expected.json when the seed is the default 1, and a broadcast with no
   adversary must deliver nothing but the source message.  A broadcast
   that raises or fails a check counts as failed, and the exit code is 1.

     main.exe --all [--seed S] [--seconds T] [--trace 0|1] [--json FILE]
   runs the four workloads one after another, each in a child process of
   its own (so peak heap is per workload), and merges their JSON.
     main.exe --smoke            first broadcast of each workload, traced
     main.exe --compare B1,B2,.. C1,C2,..
   compares the per-workload medians of two sets of --json files against
   the bounds in BENCHMARK.json and exits 1 on a regression.
     main.exe --write-expected   regenerates expected.json (seed 1). *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
let default_seed = 1

(* A pass runs the first [n] broadcasts of the list once; a timed run
   cycles through the list until the time is up. *)
type budget = Pass of int option | Seconds of float

type metric = { name : string; value : float; unit : string }

let m name value unit = { name; value; unit }

type outcome = {
  workload : string;
  seed : int;
  attempted : int;
  failed : int;
  reported : metric list;  (** the metrics of the final JSON line *)
  extra : metric list;  (** printed and written to --json only *)
  digests : string list;  (** per broadcast, in run order *)
}

(* ---------- output checks ---------- *)

let digest (r : Scenario.result) (s : Scenario.summary) =
  let b = Buffer.create 4096 in
  let add i =
    Buffer.add_string b (string_of_int i);
    Buffer.add_char b ','
  in
  let e = r.Scenario.engine in
  add e.Engine.rounds_used;
  add e.Engine.active_rounds;
  Array.iter add e.Engine.completion_round;
  Buffer.add_char b '|';
  Array.iter add e.Engine.broadcasts;
  Buffer.add_char b '|';
  add s.Scenario.honest_nodes;
  add s.Scenario.delivered_any;
  add s.Scenario.delivered_correct;
  String.sub (Digest.to_hex (Digest.string (Buffer.contents b))) 0 16

let read_file path = In_channel.with_open_bin path In_channel.input_all

let load_expected path workload =
  match Json.of_string (read_file path) with
  | exception Sys_error e -> Error e
  | Error e -> Error (path ^ ": " ^ e)
  | Ok json -> (
    match Option.bind (Json.member workload json) Json.to_list_opt with
    | None -> Error (Printf.sprintf "%s: no digests for %s" path workload)
    | Some l -> Ok (Array.of_list (List.filter_map Json.to_string_opt l)))

(* Problems with one broadcast's outcome (empty: it passed). *)
let check ~expected k (r : Scenario.result) s d =
  let digest_problem =
    match expected with
    | Some e when k >= Array.length e -> [ Printf.sprintf "no expected digest for broadcast %d" k ]
    | Some e when not (String.equal e.(k) d) ->
      [ Printf.sprintf "digest %s, expected %s" d e.(k) ]
    | _ -> []
  in
  let safety_problem =
    match r.Scenario.spec.Scenario.faults with
    | Scenario.No_faults when s.Scenario.delivered_correct <> s.Scenario.delivered_any ->
      [
        Printf.sprintf "no adversary, yet %d of %d deliveries differ from the source message"
          (s.Scenario.delivered_any - s.Scenario.delivered_correct)
          s.Scenario.delivered_any;
      ]
    | _ -> []
  in
  digest_problem @ safety_problem

(* ---------- one workload ---------- *)

type sample = {
  seconds : float;
  rounds : int;
  active : int;
  minor_words : float;
  promoted_words : float;
  major_words : float;
  major_collections : int;
}

(* Every broadcast starts from a fully collected heap, outside the timed
   region.  Without this a broadcast also pays for collecting whatever
   garbage the one before it left (about a tenth of its time on
   mp-expander), so its time and the process's peak heap depend on what
   ran before it. *)
let untraced ~topology spec =
  Gc.full_major ();
  let g0 = Gc.quick_stat () in
  let t0 = now () in
  let r = Scenario.run ~topology spec in
  let t1 = now () in
  let g1 = Gc.quick_stat () in
  ( r,
    {
      seconds = t1 -. t0;
      rounds = r.Scenario.engine.Engine.rounds_used;
      active = r.Scenario.engine.Engine.active_rounds;
      minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
      promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
      major_words = g1.Gc.major_words -. g0.Gc.major_words;
      major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
    } )

let run_workload ~(workload : Workloads.t) ~seed ~budget ~trace ~expected_path =
  let started = now () in
  let specs = workload.Workloads.specs seed in
  let specs =
    match budget with
    | Pass (Some k) -> Array.sub specs 0 (min k (Array.length specs))
    | Pass None | Seconds _ -> specs
  in
  let len = Array.length specs in
  let fail fmt = Printf.ksprintf (fun s -> prerr_endline (workload.Workloads.name ^ ": " ^ s)) fmt in
  let expected, load_problem =
    if seed <> default_seed then (None, false)
    else
      match load_expected expected_path workload.Workloads.name with
      | Ok e -> (Some e, false)
      | Error e ->
        fail "cannot check digests: %s" e;
        (None, true)
  in
  (* A truncated pass is the smoke check, which reports no set-up time. *)
  let repeat = match budget with Pass (Some _) -> false | Pass None | Seconds _ -> true in
  let setup = Workloads.setup ~now ~repeat specs in
  let clock_ns = if trace then Traced.calibrate_clock () else 0.0 in
  let c = Traced.counters () in
  let samples = ref [] and digests = ref [] and failed = ref 0 and attempted = ref 0 in
  let traced_s = ref 0.0 and untraced_s = ref 0.0 in
  let broadcast k =
    incr attempted;
    let spec = specs.(k) and topology = setup.Workloads.topologies.(k) in
    match untraced ~topology spec with
    | exception e ->
      incr failed;
      fail "broadcast %d raised %s" k (Printexc.to_string e)
    | r, sample ->
      let s = Scenario.summarize r in
      let d = digest r s in
      digests := d :: !digests;
      samples := sample :: !samples;
      let problems = check ~expected k r s d in
      let problems =
        if not trace then problems
        else
          let t0 = now () in
          match Traced.run c ~topology spec with
          | exception e -> problems @ [ "traced run raised " ^ Printexc.to_string e ]
          | traced -> (
            traced_s := !traced_s +. (now () -. t0);
            untraced_s := !untraced_s +. sample.seconds;
            match Traced.first_difference r.Scenario.engine traced with
            | None -> problems
            | Some field -> problems @ [ "traced result differs from Scenario.run in " ^ field ])
      in
      match problems with
      | [] -> ()
      | _ ->
        incr failed;
        List.iter (fail "broadcast %d: %s" k) problems
  in
  (match budget with
  | Pass _ -> Array.iteri (fun k _ -> broadcast k) specs
  | Seconds s ->
    let deadline = now () +. s in
    let i = ref 0 in
    while !i = 0 || now () < deadline do
      broadcast (!i mod len);
      incr i
    done);
  if load_problem then incr failed;
  let samples = List.rev !samples in
  let sum f = List.fold_left (fun acc x -> acc +. f x) 0.0 samples in
  let n_ok = float_of_int (max 1 (List.length samples)) in
  let times = List.map (fun x -> x.seconds) samples in
  let med = function [] -> 0.0 | l -> Perf_stats.median l in
  let setup_s = med (List.map2 ( +. ) setup.Workloads.topology_s setup.Workloads.csr_s) in
  let gc =
    [
      m "Gc.minor_words_per_active_round"
        (sum (fun x -> x.minor_words) /. Float.max 1.0 (sum (fun x -> float_of_int x.active)))
        "words/round";
      m "Gc.promoted_words" (sum (fun x -> x.promoted_words) /. n_ok) "words/broadcast";
      m "Gc.major_words" (sum (fun x -> x.major_words) /. n_ok) "words/broadcast";
    ]
  in
  let reported, extra =
    if trace then
      ( [
          m "Topology.build_s" (med setup.Workloads.topology_s) "s";
          m "Graph.csr_s" (med setup.Workloads.csr_s) "s";
        ]
        @ List.map (fun (name, value, unit) -> m name value unit) (Traced.layers c ~clock_ns)
        @ gc
        @ [
            m "trace.clock_ns" clock_ns "ns";
            m "trace.overhead" (!traced_s /. Float.max 1e-9 !untraced_s) "ratio";
          ],
        (* Often exactly 0 on these workloads, so kept out of the result
           line (whose metrics must never read 0). *)
        [
          m "Engine.rounds_skipped"
            (float_of_int (c.Traced.rounds_used - c.Traced.rounds_executed) /. n_ok)
            "count/broadcast";
          m "Gc.major_collections"
            (sum (fun x -> float_of_int x.major_collections) /. n_ok)
            "count/broadcast";
        ] )
    else
      let tail =
        match Perf_stats.tail times with
        | Some (p, v) -> [ m (Printf.sprintf "broadcast_p%d_s" p) v "s" ]
        | None -> []
      in
      (* Per-broadcast latency is printed but not gated: how long one
         broadcast runs depends on its seed (1.7-5.4 s on scale-sparse,
         where NW stalls at random points), so it cannot be steady across
         runs with different seeds.  Rounds/s is, and as a median over
         broadcasts rather than a ratio of sums it also shrugs off host
         slow-downs lasting a few seconds (common on a shared machine). *)
      ( [
          m "setup_s" setup_s "s";
          m "rounds_per_s"
            (med (List.map (fun x -> float_of_int x.rounds /. x.seconds) samples))
            "rounds/s";
          m "peak_heap_mw" (float_of_int (Gc.quick_stat ()).Gc.top_heap_words /. 1e6) "Mwords";
        ],
        [
          m "broadcast_p50_s" (med times) "s";
          m "broadcast_samples" (float_of_int (List.length samples)) "count";
        ]
        @ tail
        @ [
            m "wall_s" (now () -. started) "s";
            m "fail_frac" (float_of_int !failed /. float_of_int (max 1 !attempted)) "ratio";
          ] )
  in
  {
    workload = workload.Workloads.name;
    seed;
    attempted = !attempted;
    failed = !failed;
    reported;
    extra;
    digests = List.rev !digests;
  }

(* ---------- output ---------- *)

let metrics_json ms =
  Json.Obj
    (List.map (fun x -> (x.name, Json.Obj [ ("value", Json.Float x.value); ("unit", Json.String x.unit) ])) ms)

let outcome_json o =
  Json.Obj
    [
      ("workload", Json.String o.workload);
      ("seed", Json.Int o.seed);
      ("attempted", Json.Int o.attempted);
      ("failed", Json.Int o.failed);
      ("metrics", metrics_json (o.reported @ o.extra));
      ("digests", Json.List (List.map (fun d -> Json.String d) o.digests));
    ]

let result_line o =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (o.failed = 0));
         ("attempted", Json.Int o.attempted);
         ("failed", Json.Int o.failed);
         ("metrics", metrics_json o.reported);
       ])

let print_outcome o =
  Printf.printf "%s (seed %d): %d broadcasts, %d failed\n" o.workload o.seed o.attempted o.failed;
  List.iter
    (fun x -> Printf.printf "  %-36s %16.6g %s\n" x.name x.value x.unit)
    (o.reported @ o.extra)

let write_json path workloads =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Json.to_string_pretty (Json.Obj [ ("workloads", Json.List workloads) ])))

let workloads_of_file path =
  match Json.of_string (read_file path) with
  | Error e -> failwith (path ^ ": " ^ e)
  | Ok json -> Option.value (Option.bind (Json.member "workloads" json) Json.to_list_opt) ~default:[]

(* ---------- --all: one child process per workload ---------- *)

let run_all ~seed ~seconds ~trace ~expected_path ~json =
  let merged = ref [] and ok = ref true in
  List.iter
    (fun (w : Workloads.t) ->
      let tmp = Filename.temp_file ("perf-" ^ w.Workloads.name) ".json" in
      let args =
        [ Sys.executable_name; "--workload"; w.Workloads.name; "--seed"; string_of_int seed ]
        @ (match seconds with Some s -> [ "--seconds"; Printf.sprintf "%g" s ] | None -> [])
        @ [ "--trace"; (if trace then "1" else "0"); "--expected"; expected_path; "--json"; tmp ]
      in
      let pid =
        Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin Unix.stdout
          Unix.stderr
      in
      (match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _ -> ok := false);
      (match workloads_of_file tmp with
      | l -> merged := !merged @ l
      | exception (Failure _ | Sys_error _) -> ok := false);
      Sys.remove tmp)
    Workloads.all;
  Option.iter (fun path -> write_json path !merged) json;
  if not !ok then exit 1

(* ---------- --compare ---------- *)

(* End-to-end metric bounds from BENCHMARK.json, and the absolute floor
   below which a worsening is noise whatever its share: set-up times of a
   few tens of milliseconds jitter by more than any useful share. *)
let load_bounds () =
  match Json.of_string (read_file "BENCHMARK.json") with
  | Error e -> failwith ("BENCHMARK.json: " ^ e)
  | Ok json ->
    List.filter_map
      (fun e ->
        let field k f = Option.bind (Json.member k e) f in
        match
          ( field "name" Json.to_string_opt,
            field "better" Json.to_string_opt,
            field "bound" Json.to_float_opt )
        with
        | Some name, Some better, Some bound ->
          Option.map
            (fun better ->
              (name, better, bound, if String.equal name "setup_s" then 0.05 else 0.0))
            (Perf_stats.better_of_string better)
        | _ -> None)
      (Option.value (Option.bind (Json.member "end_to_end" json) Json.to_list_opt) ~default:[])

let compare_runs base_files current_files =
  let bounds = load_bounds () in
  let load files = List.concat_map workloads_of_file (String.split_on_char ',' files) in
  let base = load base_files and current = load current_files in
  let values runs workload metric =
    List.filter_map
      (fun w ->
        if Option.equal String.equal (Option.bind (Json.member "workload" w) Json.to_string_opt)
             (Some workload)
        then
          Option.bind (Json.member "metrics" w) (fun ms ->
              Option.bind (Json.member metric ms) (fun x ->
                  Option.bind (Json.member "value" x) Json.to_float_opt))
        else None)
      runs
  in
  let regressions = ref 0 in
  Printf.printf "%-14s %-18s %14s %14s %8s %8s  %s\n" "workload" "metric" "base median" "median"
    "change" "spread" "verdict";
  List.iter
    (fun (w : Workloads.t) ->
      List.iter
        (fun (metric, better, bound, floor) ->
          match (values base w.Workloads.name metric, values current w.Workloads.name metric) with
          | [], _ | _, [] -> ()
          | bs, cs ->
            let b = Perf_stats.median bs and c = Perf_stats.median cs in
            (* When the base runs disagree among themselves by more than the
               bound, a move within that noise is unresolved rather than
               a regression or a tie — unless every current run beats
               every base run. *)
            let beats x y = match better with Perf_stats.Lower -> x < y | Perf_stats.Higher -> x > y in
            let spread = Perf_stats.spread bs in
            let verdict =
              if spread > bound && not (List.for_all (fun x -> List.for_all (beats x) bs) cs) then
                "unresolved (base spread above bound)"
              else if Perf_stats.regressed ~better ~bound ~floor ~base:b ~current:c then begin
                incr regressions;
                Printf.sprintf "REGRESSED (bound %.0f%%)" (100.0 *. bound)
              end
              else "ok"
            in
            Printf.printf "%-14s %-18s %14.6g %14.6g %+7.1f%% %7.1f%%  %s\n" w.Workloads.name
              metric b c
              (100.0 *. (c -. b) /. Float.abs b)
              (100.0 *. spread) verdict)
        bounds)
    Workloads.all;
  if !regressions > 0 then exit 1

(* ---------- --write-expected ---------- *)

(* Digests of one pass at the default seed, computed with plain
   [Scenario.run spec] (no prebuilt topology), so that checking against
   them also checks the benchmark's own set-up against the library's. *)
let write_expected path =
  let entries =
    List.map
      (fun (w : Workloads.t) ->
        let digests =
          Array.to_list
            (Array.mapi
               (fun k spec ->
                 let r = Scenario.run spec in
                 let s = Scenario.summarize r in
                 let d = digest r s in
                 (match check ~expected:None k r s d with
                 | [] -> ()
                 | problem :: _ -> failwith (Printf.sprintf "%s %d: %s" w.Workloads.name k problem));
                 Json.String d)
               (w.Workloads.specs default_seed))
        in
        Printf.printf "%s: %d digests\n%!" w.Workloads.name (List.length digests);
        (w.Workloads.name, Json.List digests))
      Workloads.all
  in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Json.to_string_pretty (Json.Obj (("seed", Json.Int default_seed) :: entries))))

(* ---------- command line ---------- *)

let () =
  let workload = ref None and seed = ref default_seed and seconds = ref None in
  let trace = ref false and json = ref None and expected = ref "bench/perf/expected.json" in
  let mode = ref `One and compare_args = ref [] in
  let speclist =
    [
      ("--workload", Arg.String (fun w -> workload := Some w), "NAME  workload to run");
      ("--seed", Arg.Set_int seed, "S  workload seed (default 1)");
      ( "--seconds",
        Arg.Float (fun s -> seconds := Some s),
        "T  replay the broadcast list for T seconds (default: one pass)" );
      ( "--trace",
        Arg.Int
          (function
          | 0 -> trace := false
          | 1 -> trace := true
          | v -> raise (Arg.Bad (Printf.sprintf "--trace %d (expected 0 or 1)" v))),
        "0|1  1: trace tier, per-layer metrics" );
      ("--json", Arg.String (fun p -> json := Some p), "FILE  also write the full results here");
      ( "--expected",
        Arg.Set_string expected,
        "FILE  outcome digests at seed 1 (default bench/perf/expected.json)" );
      ("--all", Arg.Unit (fun () -> mode := `All), " every workload, one child process each");
      ("--smoke", Arg.Unit (fun () -> mode := `Smoke), " first broadcast of each workload, traced");
      ("--write-expected", Arg.Unit (fun () -> mode := `Write), " regenerate the --expected file");
      ( "--compare",
        Arg.Tuple
          [
            Arg.String (fun b -> compare_args := [ b ]);
            Arg.String (fun c -> compare_args := !compare_args @ [ c ]);
          ],
        "BASE.json,.. CUR.json,..  compare medians against BENCHMARK.json bounds" );
    ]
  in
  let usage = "main.exe --workload NAME [--seed S] [--seconds T] [--trace 0|1] [--json FILE]" in
  Arg.parse speclist (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  match (!mode, !compare_args) with
  | _, [ base; current ] -> compare_runs base current
  | `Write, _ -> write_expected !expected
  | `All, _ -> run_all ~seed:!seed ~seconds:!seconds ~trace:!trace ~expected_path:!expected ~json:!json
  | `Smoke, _ ->
    let failed =
      List.fold_left
        (fun acc w ->
          let o =
            run_workload ~workload:w ~seed:default_seed ~budget:(Pass (Some 1)) ~trace:true
              ~expected_path:!expected
          in
          Printf.printf "smoke %-14s %s\n%!" o.workload (if o.failed = 0 then "ok" else "FAILED");
          acc + o.failed)
        0 Workloads.all
    in
    if failed > 0 then exit 1
  | `One, _ -> (
    match Option.bind !workload Workloads.find with
    | None ->
      prerr_endline
        (Printf.sprintf "--workload: expected one of %s"
           (String.concat ", " (List.map (fun (w : Workloads.t) -> w.Workloads.name) Workloads.all)));
      exit 2
    | Some w ->
      let budget = match !seconds with Some s -> Seconds s | None -> Pass None in
      let o = run_workload ~workload:w ~seed:!seed ~budget ~trace:!trace ~expected_path:!expected in
      Option.iter (fun path -> write_json path [ outcome_json o ]) !json;
      print_outcome o;
      print_endline (result_line o);
      if o.failed > 0 then exit 1)
