(* Wakeup default: a jammer is a potential transmitter in any round while
   its budget lasts, and inert forever once it is spent.  The predicate's
   RNG stream is private to the jammer, so rounds the sparse engine skips
   after exhaustion (where the dense loop would still burn draws on a
   predicate that can no longer spend) are invisible to everyone else. *)
let budget_gated budget next r =
  match Budget.remaining budget with Some 0 -> max_int | Some _ | None -> next r

let machine_of_predicate ?next_active pred ~budget =
  let act round =
    let phase = Schedule.phase_of_round round in
    if pred ~round ~phase && Budget.try_spend budget then Engine.Transmit Msg.Blip
    else Engine.Silent
  in
  let next = match next_active with Some f -> f | None -> Engine.always_active in
  {
    Engine.act;
    observe = (fun _ _ -> ());
    observe_packed = Some (fun _ _ _ -> ());
    delivered = (fun () -> None);
    next_active = budget_gated budget next;
  }

let veto_jammer ~rng ~budget ~probability =
  (* The predicate short-circuits on the phase test, so the dense loop
     draws from [rng] exactly in phases 4 and 5 — waking only there keeps
     the private stream aligned between modes. *)
  let veto_phases r =
    let phase = Schedule.phase_of_round r in
    if phase >= 4 then r else r + (4 - phase)
  in
  machine_of_predicate ~budget ~next_active:veto_phases (fun ~round:_ ~phase ->
      (phase = 4 || phase = 5) && Rng.bernoulli rng probability)

let scripted ?next_active pred ~budget = machine_of_predicate ?next_active pred ~budget
