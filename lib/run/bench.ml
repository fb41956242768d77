type options = {
  scale : Experiment.scale;
  jobs : int;
  only : string list;  (* empty = every registered job *)
  json_path : string option;
  profile : bool;
}

let selection only =
  match only with
  | [] -> Ok Registry.all
  | ids ->
    let missing = List.filter (fun id -> Registry.find id = None) ids in
    if missing <> [] then
      Error
        (Printf.sprintf "unknown experiment id%s: %s (known: %s)"
           (if List.length missing > 1 then "s" else "")
           (String.concat ", " missing)
           (String.concat " " Registry.ids))
    else
      (* Keep the canonical registry order, not the order given. *)
      Ok
        (List.filter
           (fun job ->
             List.exists
               (fun id -> String.lowercase_ascii id = job.Experiment.id)
               ids)
           Registry.all)

let scale_name = function Experiment.Quick -> "quick" | Experiment.Paper -> "paper"

let write_json path json =
  let oc = open_out path in
  output_string oc (Json.to_string_pretty json);
  close_out oc

let run options =
  match selection options.only with
  | Error message -> Error message
  | Ok selected ->
    Printf.printf "securebit benchmark harness — scale: %s, jobs: %d\n\n%!"
      (scale_name options.scale) options.jobs;
    let t0 = Unix.gettimeofday () in
    let outcomes =
      List.map
        (fun job ->
          let outcome =
            Runner.run_job ~jobs:options.jobs ~profile:options.profile ~scale:options.scale job
          in
          print_string (Runner.render outcome);
          Option.iter
            (fun (p : Runner.profile) ->
              Printf.printf
                "[%s profile: %d rounds, %.0f rounds/s, %.1fM minor words, %.0f w/active-round]\n"
                job.Experiment.id p.Runner.rounds_simulated p.Runner.rounds_per_second
                (p.Runner.minor_words /. 1e6)
                p.Runner.words_per_active_round)
            outcome.Runner.profile;
          Printf.printf "[%s: %.1fs, elapsed %.1fs]\n\n%!" job.Experiment.id
            outcome.Runner.wall_seconds
            (Unix.gettimeofday () -. t0);
          outcome)
        selected
    in
    Option.iter
      (fun path ->
        write_json path (Runner.results_json ~scale:options.scale ~jobs:options.jobs outcomes);
        Printf.printf "results written to %s\n%!" path)
      options.json_path;
    Ok outcomes

(* --- compare ------------------------------------------------------------ *)

type gate = {
  field : string list;
  limit : float -> float option;
  floor : float;
  decimals : int;
}

(* Wall time gets 20% headroom, and runs under 0.05 s on both sides are
   too short to time.  The heap peak is machine-sensitive and gets 50%,
   rounded up to the next 100 000 words.  Words per active round is a
   deterministic function of the seeded simulation, so its limit is a
   tight 20% rounded up to a whole word; the tables that never transmit
   (rate 0) get none. *)
let gates =
  [
    {
      field = [ "wall_seconds" ];
      limit = (fun base -> Some (1.2 *. base));
      floor = 0.05;
      decimals = 3;
    };
    {
      field = [ "profile"; "top_heap_words" ];
      limit = (fun base -> Some (Float.ceil (1.5 *. base /. 1e5) *. 1e5));
      floor = 0.0;
      decimals = 0;
    };
    {
      field = [ "profile"; "words_per_active_round" ];
      limit = (fun base -> if base > 0.0 then Some (Float.ceil (1.2 *. base)) else None);
      floor = 0.0;
      decimals = 1;
    };
  ]

type verdict = Within | Below_floor | Over | New | Not_run | Not_profiled

type check = {
  id : string;
  gate : gate;
  base : float option;
  limit : float option;
  current : float option;
  verdict : verdict;
}

let value gate entry =
  List.fold_left (fun json key -> Option.bind json (Json.member key)) (Some entry) gate.field
  |> Fun.flip Option.bind Json.to_float_opt

let check ~id ~base_entry ~current_entry gate =
  let base = Option.bind base_entry (value gate) in
  let current = Option.bind current_entry (value gate) in
  let limit = Option.bind base gate.limit in
  let verdict =
    match (base, limit, current_entry, current) with
    | _, _, _, Some _ when base_entry = None -> Some New
    | _, None, _, _ -> None
    | _, Some _, None, _ -> Some Not_run
    | _, Some _, Some _, None -> Some Not_profiled
    | Some b, Some _, _, Some c when b < gate.floor && c < gate.floor -> Some Below_floor
    | _, Some l, _, Some c -> Some (if c > l then Over else Within)
  in
  Option.map (fun verdict -> { id; gate; base; limit; current; verdict }) verdict

(* The experiment entries of a results file, by id in file order.  Every
   entry must carry its wall time, so only profile fields can be missing. *)
let experiments path =
  let ( let* ) = Result.bind in
  let* json =
    match In_channel.with_open_text path In_channel.input_all with
    | contents -> Result.map_error (Printf.sprintf "%s: %s" path) (Json.of_string contents)
    | exception Sys_error message -> Error message
  in
  let entry e =
    match Option.bind (Json.member "id" e) Json.to_string_opt with
    | None -> Error (path ^ ": experiment entry without an id")
    | Some id when Option.bind (Json.member "wall_seconds" e) Json.to_float_opt = None ->
      Error (Printf.sprintf "%s: experiment %s has no wall_seconds" path id)
    | Some id -> Ok (id, e)
  in
  match Option.bind (Json.member "experiments" json) Json.to_list_opt with
  | None -> Error (path ^ ": no \"experiments\" list (not a securebit-bench results file?)")
  | Some entries ->
    List.fold_right
      (fun e acc ->
        let* rest = acc in
        let* entry = entry e in
        Ok (entry :: rest))
      entries (Ok [])

let compare ~base ~current =
  match (experiments base, experiments current) with
  | Error message, _ -> Error ("baseline " ^ message)
  | _, Error message -> Error ("current " ^ message)
  | Ok base, Ok current ->
    let not_run = List.filter (fun (id, _) -> not (List.mem_assoc id current)) base in
    Ok
      (List.concat_map
         (fun (id, _) ->
           List.filter_map
             (check ~id ~base_entry:(List.assoc_opt id base)
                ~current_entry:(List.assoc_opt id current))
             gates)
         (current @ not_run))

let verdict_name = function
  | Within -> "ok"
  | Below_floor -> "below noise floor"
  | Over -> "OVER LIMIT"
  | New -> "new"
  | Not_run -> "not run"
  | Not_profiled -> "not profiled"

let render checks =
  let table =
    Table.create ~title:"bench compare (limits derived from the baseline)"
      ~columns:[ "experiment"; "gate"; "base"; "limit"; "current"; "change"; "verdict" ]
  in
  let row c = c.id ^ " " ^ String.concat "." c.gate.field in
  List.iter
    (fun c ->
      let cell = function Some v -> Table.cell_f ~decimals:c.gate.decimals v | None -> "-" in
      Table.add_row table
        [
          c.id;
          String.concat "." c.gate.field;
          cell c.base;
          cell c.limit;
          cell c.current;
          (match (c.base, c.current) with
          | Some b, Some v when b > 0.0 -> Printf.sprintf "%+.1f%%" (100.0 *. (v -. b) /. b)
          | _ -> "-");
          verdict_name c.verdict;
        ])
    checks;
  let rows verdict = List.map row (List.filter (fun c -> c.verdict = verdict) checks) in
  Table.render table
  ^ (match rows Over with
    | [] -> "no limits exceeded\n"
    | over ->
      Printf.sprintf "%d limit(s) exceeded: %s\n" (List.length over) (String.concat ", " over))
  ^
  match rows Not_profiled with
  | [] -> ""
  | unchecked ->
    Printf.sprintf "warning: %d limit(s) not checked (current run lacks --profile data): %s\n"
      (List.length unchecked) (String.concat ", " unchecked)
