(* Results files for the bench compare tests: experiment entries written
   to temporary files and checked with [Bench.compare]. *)

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

(* One experiment entry of a results file.  [heap] and [rate] go into its
   profile block, which is absent when neither is given. *)
let experiment ?heap ?rate id wall_seconds =
  let profile =
    Option.to_list (Option.map (fun w -> ("top_heap_words", Json.Int w)) heap)
    @ Option.to_list (Option.map (fun r -> ("words_per_active_round", Json.Float r)) rate)
  in
  Json.Obj
    ([ ("id", Json.String id); ("wall_seconds", Json.Float wall_seconds) ]
    @ if profile = [] then [] else [ ("profile", Json.Obj profile) ])

let with_file contents f =
  let path = Filename.temp_file "securebit_bench" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc -> output_string oc contents);
      f path)

let results_file experiments =
  Json.to_string_pretty
    (Json.Obj
       [ ("schema", Json.String "securebit-bench/1"); ("experiments", Json.List experiments) ])

(* [Bench.compare] on two results files holding these experiment entries. *)
let compare_entries base current =
  with_file (results_file base) (fun base ->
      with_file (results_file current) (fun current ->
          match Bench.compare ~base ~current with
          | Ok checks -> checks
          | Error message -> Alcotest.fail message))

let row_name c = c.Bench.id ^ " " ^ String.concat "." c.Bench.gate.Bench.field

(* The rows of a report that carry [verdict], as "id field". *)
let rows verdict checks =
  List.map row_name (List.filter (fun c -> c.Bench.verdict = verdict) checks)

let wall = "wall_seconds"
let heap = "profile.top_heap_words"
let rate = "profile.words_per_active_round"
