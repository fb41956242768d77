(* Determinism checking: run the same seeded scenario twice and diff the
   full round-by-round channel trace.  Hidden mutable state, hash-order
   iteration, or un-split RNG use in the engine or a protocol machine shows
   up as a first divergent round. *)

type trace = Engine.round_digest array

let collector () =
  let acc = ref [] in
  let tap digest = acc := digest :: !acc in
  let finish () = Array.of_list (List.rev !acc) in
  (tap, finish)

type divergence = {
  round : int;
  first : Engine.round_digest option;
  second : Engine.round_digest option;
}

type outcome = Deterministic of { rounds : int } | Diverged of divergence

let digest_equal (a : Engine.round_digest) (b : Engine.round_digest) =
  a.Engine.round = b.Engine.round
  && a.Engine.transmitters = b.Engine.transmitters
  && a.Engine.observations = b.Engine.observations

let diff (first : trace) (second : trace) =
  let la = Array.length first and lb = Array.length second in
  let rec go i =
    if i >= la && i >= lb then Deterministic { rounds = la }
    else if i >= la || i >= lb then
      Diverged
        {
          round = i;
          first = (if i < la then Some first.(i) else None);
          second = (if i < lb then Some second.(i) else None);
        }
    else if digest_equal first.(i) second.(i) then go (i + 1)
    else Diverged { round = i; first = Some first.(i); second = Some second.(i) }
  in
  go 0

let capture_spec ?max_rounds ?mode spec =
  let spec =
    match max_rounds with
    | Some cap -> { spec with Scenario.cap = min spec.Scenario.cap cap }
    | None -> spec
  in
  let tap, finish = collector () in
  let result = Scenario.run ~tap ?mode spec in
  (finish (), result)

let check_spec ?max_rounds ?mode spec =
  let first, _ = capture_spec ?max_rounds ?mode spec in
  let second, _ = capture_spec ?max_rounds ?mode spec in
  diff first second

let mode_label : Engine.mode -> string = function
  | `Dense -> "dense"
  | `Sparse -> "sparse"

let mode_of_label label =
  match String.lowercase_ascii label with
  | "dense" -> Some `Dense
  | "sparse" -> Some `Sparse
  | _ -> None

(* Mode-equivalence check: capture one trace per requested engine mode and
   diff every pair (a single mode degenerates to the classic
   run-twice-and-diff).  The engine promises byte-identical traces for all
   modes, so any divergence names the two loop implementations that
   disagree. *)
let check_modes ?max_rounds modes spec =
  match modes with
  | [] -> []
  | [ only ] ->
    let first, _ = capture_spec ?max_rounds ~mode:only spec in
    let second, _ = capture_spec ?max_rounds ~mode:only spec in
    [ ((mode_label only, mode_label only), diff first second) ]
  | _ :: _ :: _ ->
    let traces =
      List.map (fun mode -> (mode_label mode, fst (capture_spec ?max_rounds ~mode spec))) modes
    in
    let rec pairs = function
      | [] -> []
      | (la, ta) :: rest ->
        List.map (fun (lb, tb) -> ((la, lb), diff ta tb)) rest @ pairs rest
    in
    pairs traces

let pp_digest fmt (d : Engine.round_digest) =
  let obs = Array.to_list d.Engine.observations in
  let active = List.length (List.filter (fun fp -> fp <> 0) obs) in
  Format.fprintf fmt "round %d: tx={%s}, %d node(s) observed activity" d.Engine.round
    (String.concat "," (List.map string_of_int d.Engine.transmitters))
    active

let pp_outcome fmt = function
  | Deterministic { rounds } ->
    Format.fprintf fmt "deterministic over %d traced rounds" rounds
  | Diverged { round; first; second } ->
    let side label fmt = function
      | Some d -> Format.fprintf fmt "@\n  %s %a" label pp_digest d
      | None -> Format.fprintf fmt "@\n  %s trace ended" label
    in
    Format.fprintf fmt "traces diverge at round %d:%a%a" round (side "run 1:") first
      (side "run 2:") second

let outcome_to_string o = Format.asprintf "%a" pp_outcome o
