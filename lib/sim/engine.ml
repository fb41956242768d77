type 'm action = Silent | Transmit of 'm

(* The round's transmissions in global ascending-transmitter order.  The
   engine owns one of these per run and reuses it every round; packed
   observers read decoded payloads out of it by slot index.  [payloads] is
   lazily sized from the first payload (the engine is polymorphic in ['m],
   so there is no dummy element to preallocate with). *)
type 'm slots = { mutable payloads : 'm array; mutable count : int }

type 'm machine = {
  act : int -> 'm action;
  observe : int -> 'm Channel.observation -> unit;
  observe_packed : (int -> int -> 'm slots -> unit) option;
  delivered : unit -> Bitvec.t option;
  next_active : int -> int;
}

let always_active r = r
let never_active _ = max_int

let silent_machine =
  {
    act = (fun _ -> Silent);
    observe = (fun _ _ -> ());
    observe_packed = Some (fun _ _ _ -> ());
    delivered = (fun () -> None);
    next_active = never_active;
  }

let boxed_machine m = { m with observe_packed = None }

let observation_of_packed slots p =
  if p = 0 then Channel.Silence
  else if p land 3 = 1 then Channel.Busy
  else Channel.Clear slots.payloads.(p lsr 2)

let slots_push s capacity payload =
  if Array.length s.payloads = 0 then s.payloads <- Array.make (max 1 capacity) payload;
  s.payloads.(s.count) <- payload;
  s.count <- s.count + 1

type mode = [ `Dense | `Sparse ]

type result = {
  rounds_used : int;
  active_rounds : int;
  hit_cap : bool;
  delivered : Bitvec.t option array;
  completion_round : int array;
  broadcasts : int array;
}

type round_digest = { round : int; transmitters : int list; observations : int array }

(* The default Hashtbl.hash stops after 10 meaningful nodes; deep payloads
   would alias in determinism-checker traces. *)
let fingerprint_payload payload = 2 + (Hashtbl.hash_param 64 128 payload land 0x3FFFFFFF)

let fingerprint_observation = function
  | Channel.Silence -> 0
  | Channel.Busy -> 1
  | Channel.Clear payload -> fingerprint_payload payload

(* Tap fingerprint of a packed code: the payload hash was computed once per
   slot when the transmission entered the round (see [slot_fp] below), not
   once per (receiver, observation). *)
let fingerprint_packed slot_fp p =
  if p = 0 then 0 else if p land 3 = 1 then 1 else slot_fp.(p lsr 2)

(* Word sets: ids packed [Bitvec.bits_per_word] to an int, the sparse loop's
   per-round "who runs this phase" sets. *)
let word_set n = Array.make ((n + Bitvec.bits_per_word - 1) / Bitvec.bits_per_word) 0

let set_add set i =
  let w = i / Bitvec.bits_per_word in
  set.(w) <- set.(w) lor (1 lsl (i mod Bitvec.bits_per_word))

(* Ascending drain: [step i r] on every member [i] of [set], lowest id
   first — the dense loop's 0..n-1 order, so loss draws, capture ties,
   slot order and tap order are unchanged — at a cost of one test per
   word plus one call per member.  [~clear] empties the set as it goes. *)
let rec drain_word step base w r =
  if w <> 0 then begin
    step (base + Bitvec.lowest_bit w) r;
    drain_word step base (w land (w - 1)) r
  end

let drain step ~clear set r =
  for wi = 0 to Array.length set - 1 do
    let w = set.(wi) in
    if w <> 0 then begin
      if clear then set.(wi) <- 0;
      drain_word step (wi * Bitvec.bits_per_word) w r
    end
  done

(* Per-bit steps of the collision-count fan-in, at top level so that a
   round builds no closure.  [stamp_slots] records [slot] as the first
   decodable transmission of every receiver in [w] (ids [base + bit]);
   [write_codes] writes the packed code of every receiver in [covered]:
   clear at its stamped slot if it is in [clear], busy otherwise. *)
let rec stamp_slots first base w slot =
  if w <> 0 then begin
    first.(base + Bitvec.lowest_bit w) <- slot;
    stamp_slots first base (w land (w - 1)) slot
  end

let rec write_codes out first base covered clear =
  if covered <> 0 then begin
    let b = Bitvec.lowest_bit covered in
    out.(base + b) <-
      (if (clear lsr b) land 1 = 1 then Channel.Packed.clear first.(base + b)
       else Channel.Packed.busy);
    write_codes out first base (covered land (covered - 1)) clear
  end

let run ?(mode : mode = `Sparse) ?rng ?(channel = Channel.ideal) ?stop_when ?(stop_stride = 96)
    ?idle_stop ?tap ?listeners ~topology ~machines ~waiters ~cap () =
  let n = Topology.size topology in
  if Array.length machines <> n || Array.length waiters <> n then
    invalid_arg "Engine.run: machines/waiters size mismatch";
  if stop_stride < 1 then invalid_arg "Engine.run: stop_stride must be >= 1";
  if Float.is_nan channel.Channel.loss_prob || Float.is_nan channel.Channel.capture_ratio then
    invalid_arg "Engine.run: NaN channel parameter";
  if channel.Channel.loss_prob > 0.0 && Option.is_none rng then
    invalid_arg "Engine.run: loss_prob > 0 requires an rng";
  let broadcasts = Array.make n 0 in
  let completion_round = Array.make n (-1) in
  (* Outgoing links in CSR form, built once with the graph (see
     Graph.csr): repeated runs over one topology pay no O(links)
     rebuild. *)
  let { Graph.out_off; out_rcv; out_pow; words } = Graph.csr (Topology.graph topology) in
  let loss = channel.Channel.loss_prob in
  let pending = ref 0 in
  Array.iter (fun w -> if w then incr pending) waiters;
  let round = ref 0 in
  (* Rounds with at least one transmission.  Both loops detect that
     condition already (for the idle cut-off), so the count is
     mode-independent; it is the denominator of the words/active-round
     allocation gate. *)
  let active_rounds = ref 0 in
  (* Flat per-receiver channel aggregates instead of transmission lists:
     resolution only needs the sensed power sum, the strongest decodable
     signal, and the signal counts, so the hot loop allocates nothing.
     [Channel.resolve_packed] turns the aggregates into packed codes;
     equivalence with the list-based reference resolution in
     test/channel_oracle.ml is covered by a property test.  [obs_packed] holds silence outside a round's
     resolve-to-observe window: observing a code resets it. *)
  let sum_power = Array.make n 0.0 in
  let n_decodable = Array.make n 0 in
  let best_power = Array.make n 0.0 in
  let best_slot = Array.make n 0 in
  let obs_packed = Array.make n 0 in
  let has_rx = Array.make n false in
  (* The receivers touched this round, as a preallocated stack: Phase 1
     pushes each receiver at most once (guarded by [has_rx]), the
     after-round reset pops them all. *)
  let touched = Array.make (max 1 n) 0 in
  let n_touched = ref 0 in
  let slots = { payloads = [||]; count = 0 } in
  (* Trace capture is allocated only when a tap is installed, so the hot
     path of untraced runs is untouched.  [slot_fp] memoizes the payload
     hash per transmission slot; receivers reuse it instead of re-hashing
     per observation. *)
  let tap_fp = match tap with None -> [||] | Some _ -> Array.make n 0 in
  let slot_fp = match tap with None -> [||] | Some _ -> Array.make (max 1 n) 0 in
  (* The ids fingerprinted this round, so the tap can restore the
     all-silent background after the digest. *)
  let traced = match tap with None -> [||] | Some _ -> Array.make (max 1 n) 0 in
  let n_traced = ref 0 in
  let fingerprint i p =
    tap_fp.(i) <- fingerprint_packed slot_fp p;
    traced.(!n_traced) <- i;
    incr n_traced
  in
  (* Transmitter ids per slot, mirrored out of [slots] so the trace
     record can be built outside the hot functions without a per-round
     cons list. *)
  let tap_tx = match tap with None -> [||] | Some _ -> Array.make (max 1 n) 0 in
  (* A transmission enters the round: counted, given the next slot, and
     fingerprinted for the tap. *)
  let push_slot i payload =
    broadcasts.(i) <- broadcasts.(i) + 1;
    let slot = slots.count in
    if tap <> None then begin
      tap_tx.(slot) <- i;
      slot_fp.(slot) <- fingerprint_payload payload
    end;
    slots_push slots n payload;
    slot
  in
  (* Rows ascend; walked from the end, they meet receivers in descending
     order, the order per-link loss draws and [touched] have always
     taken, so lossy and capture runs reproduce bit for bit. *)
  let fan_out i payload =
    let slot = push_slot i payload in
    for k = out_off.(i + 1) - 1 downto out_off.(i) do
      let receiver = out_rcv.(k) and power = out_pow.(k) in
      if not has_rx.(receiver) then begin
        has_rx.(receiver) <- true;
        touched.(!n_touched) <- receiver;
        incr n_touched
      end;
      sum_power.(receiver) <- sum_power.(receiver) +. power;
      let lost =
        power >= 1.0 && loss > 0.0
        && match rng with Some r -> Rng.bernoulli r loss | None -> false (* checked at entry *)
      in
      if power >= 1.0 && not lost then begin
        n_decodable.(receiver) <- n_decodable.(receiver) + 1;
        if power > best_power.(receiver) then begin
          best_power.(receiver) <- power;
          best_slot.(receiver) <- slot
        end
      end
    done
  in
  let reset_touched () =
    for k = 0 to !n_touched - 1 do
      let i = touched.(k) in
      sum_power.(i) <- 0.0;
      n_decodable.(i) <- 0;
      best_power.(i) <- 0.0;
      best_slot.(i) <- 0;
      has_rx.(i) <- false
    done;
    n_touched := 0;
    slots.count <- 0
  in
  (match mode with
  | `Dense ->
    (* Reference implementation: every machine polled every round. *)
    let idle_rounds = ref 0 in
    let stopped () =
      !pending = 0
      || (match idle_stop with Some k -> !idle_rounds >= k | None -> false)
      ||
      match stop_when with
      | Some f when !round mod stop_stride = 0 -> f ()
      | Some _ | None -> false
    in
    (* Nodes still being polled for completion; completed ones are
       swap-removed so Phase 3 stops scanning them every round. *)
    let active = Array.init n (fun i -> i) in
    let n_active = ref n in
    while (not (stopped ())) && !round < cap do
      let r = !round in
      (* Phase 1: collect actions and fan transmissions out to receivers. *)
      for i = 0 to n - 1 do
        match machines.(i).act r with
        | Silent -> ()
        | Transmit payload -> fan_out i payload
      done;
      let anyone_transmitted = slots.count > 0 in
      (* Phase 2: resolve the channel at every node and deliver observations. *)
      Channel.resolve_packed channel ~touched ~n_touched:!n_touched ~sum_power ~n_decodable
        ~best_power ~best_slot ~out:obs_packed;
      for i = 0 to n - 1 do
        let p = obs_packed.(i) in
        obs_packed.(i) <- Channel.Packed.silence;
        if tap <> None then tap_fp.(i) <- fingerprint_packed slot_fp p;
        match machines.(i).observe_packed with
        | Some f -> f r p slots
        | None -> machines.(i).observe r (observation_of_packed slots p)
      done;
      begin
        match tap with
        | None -> ()
        | Some f ->
          f
            {
              round = r;
              transmitters = List.init slots.count (fun m -> tap_tx.(m));
              observations = Array.copy tap_fp;
            }
      end;
      reset_touched ();
      (* Phase 3: completion bookkeeping over the not-yet-complete worklist. *)
      let k = ref 0 in
      while !k < !n_active do
        let i = active.(!k) in
        match machines.(i).delivered () with
        | Some _ ->
          completion_round.(i) <- r;
          if waiters.(i) then decr pending;
          decr n_active;
          active.(!k) <- active.(!n_active)
        | None -> incr k
      done;
      if anyone_transmitted then begin
        idle_rounds := 0;
        incr active_rounds
      end
      else incr idle_rounds;
      incr round
    done
  | `Sparse ->
    (* Wakeup-driven loop.  Invariants tying it to the dense reference:
       - a machine is polled (act + observe) at round r iff its wakeup
         contract covers r, or a transmission reached it and it is in
         r's listener set; the two contracts promise that in all other
         rounds act returns Silent without side effects and observing
         the code is a no-op;
       - scheduled machines are processed in ascending id (see [drain]),
         like the dense 0..n-1 sweep, so loss draws, capture ties and tap
         transmitter order are identical;
       - the stop conditions (waiters, idle cut-off, strided stop_when)
         are evaluated for skipped rounds exactly as the dense loop would
         have, including the call count of the stateful stop_when;
       - a tap sees one digest per round, skipped rounds fingerprinting
         as uniform silence.
       [check_stop r] is the dense loop's [stopped] at the top of round r,
       with its idle counter reconstructed as r - 1 - last_tx (consecutive
       silent rounds ending at r - 1), and the same short-circuit order. *)
    let last_tx = ref (-1) in
    let idle_limit = match idle_stop with Some k -> k | None -> max_int in
    let has_idle_stop = idle_stop <> None in
    let check_stop r =
      !pending = 0
      || (has_idle_stop && r - 1 - !last_tx >= idle_limit)
      ||
      match stop_when with
      | Some f when r mod stop_stride = 0 -> f ()
      | Some _ | None -> false
    in
    let stopping = ref false in
    let silent_digest r = { round = r; transmitters = []; observations = Array.make n 0 } in
    (* Skip the all-silent rounds in [!round, target) in O(1) per stride
       check, stopping where the dense loop would have. *)
    let advance_silent target =
      if !pending = 0 then stopping := true
      else begin
        (* First round at which the idle cut-off fires, absent further
           transmissions. *)
        let idle_bound = if has_idle_stop then !last_tx + idle_limit + 1 else max_int in
        let bound = min target idle_bound in
        let stop_round = ref bound in
        (match stop_when with
        | Some f ->
          (* stop_when is stateful (progress counters): call it at every
             stride multiple the dense loop would have, in order. *)
          let r = ref ((!round + stop_stride - 1) / stop_stride * stop_stride) in
          let checking = ref true in
          while !checking && !r < bound do
            if f () then begin
              stop_round := !r;
              checking := false
            end
            else r := !r + stop_stride
          done
        | None -> ());
        (match tap with
        | Some g ->
          for q = !round to !stop_round - 1 do
            g (silent_digest q)
          done
        | None -> ());
        round := !stop_round;
        if !stop_round < target then stopping := true
      end
    in
    let cal = Calendar.create ~capacity:(2 * (n + 1)) () in
    (* Word sets by round parity: [sets.(r land 1)] holds round r's
       scheduled machines, then also its touched receivers that listen;
       the last drain of the round empties it.  Parity only drifts over
       skipped rounds, and then both sets are empty. *)
    let sets = [| word_set n; word_set n |] in
    (* Round r's listener set (see {!run}); every machine by default. *)
    let listeners =
      match listeners with
      | Some f -> f
      | None ->
        let everyone = Array.make (Array.length sets.(0)) (-1) in
        fun _ -> everyone
    in
    (* Machines stamped directly for the very next round, bypassing the
       heap.  Inside a relevant TDMA interval a machine wakes six rounds
       in a row; paying a pop + push per poll would cost more than the
       act/observe calls the sparse loop saves, so only wakeups that
       actually jump ahead go through the calendar.  [stamps] counts the
       stamps for the next round to run; it is reset as a round starts. *)
    let stamps = ref 0 in
    (* [queued.(i)]: the round of machine [i]'s latest push, or -1.  Every
       push is for a round after the one being processed, and only keys up
       to that round have been popped, so that entry is still queued: a
       touched sleeper re-asking the same wake round pushes nothing. *)
    let queued = Array.make n (-1) in
    let schedule_machine i q =
      let na = machines.(i).next_active q in
      let na = if na < q then q else na in
      if na < cap then begin
        if na = q then begin
          (* [q] is always the round after the one being processed (or
             0 at start-up), so a same-round wakeup is a stamp for the
             next iteration. *)
          set_add sets.(q land 1) i;
          incr stamps
        end
        else if na <> queued.(i) then begin
          queued.(i) <- na;
          Calendar.add cal na i
        end
      end
    in
    for i = 0 to n - 1 do
      schedule_machine i 0
    done;
    (* Round 0 always executes: the dense loop's first Phase 3 scans all
       machines, recording construction-time deliveries (sources, liars). *)
    if cap > 0 && n > 0 then begin
      set_add sets.(0) 0;
      incr stamps
    end;
    let completed = Array.make (max 1 n) false in
    let check_complete i r =
      if not completed.(i) then begin
        match machines.(i).delivered () with
        | Some _ ->
          completed.(i) <- true;
          completion_round.(i) <- r;
          if waiters.(i) then decr pending
        | None -> ()
      end
    in
    (* Collision-count fan-in.  On a collision-only channel (no capture,
       no loss) a receiver decodes iff exactly one sensed link reaches it
       and that link decodes.  Where [Graph.csr] built word entries, which
       it does only where this count rule equals [Channel.resolve_packed]'s
       float rule, the loop counts coverage to two per word instead of
       summing powers per link: [once] and [twice] hold the receivers
       reached at least once and twice, [dec] those reached through a
       decodable link, and [best_slot] the slot of each receiver's first
       decodable transmission.  [resolve_words] consumes the counters
       through the stack of words touched, so a round costs the words it
       touched, never ⌈n/62⌉. *)
    let counted =
      match words with
      | Some rows when channel.Channel.capture_ratio = infinity && loss = 0.0 -> Some rows
      | Some _ | None -> None
    in
    let counter () = if Option.is_some counted then word_set n else [||] in
    let once = counter () and twice = counter () and dec = counter () in
    let words_touched = counter () and n_words_touched = ref 0 in
    let fan_out_words { Graph.word_off; word_idx; word_sensed; word_dec } i payload =
      let slot = push_slot i payload in
      for k = word_off.(i) to word_off.(i + 1) - 1 do
        let w = word_idx.(k) and m = word_sensed.(k) and d = word_dec.(k) in
        let o = once.(w) in
        if o = 0 then begin
          words_touched.(!n_words_touched) <- w;
          incr n_words_touched
        end;
        twice.(w) <- twice.(w) lor (o land m);
        once.(w) <- o lor m;
        dec.(w) <- dec.(w) lor d;
        let fresh = d land lnot o in
        if fresh <> 0 then stamp_slots best_slot (w * Bitvec.bits_per_word) fresh slot
      done
    in
    (* A reached receiver that was not scheduled and does not listen in
       this round is not polled: its code goes back to silence, and a tap
       still fingerprints it, so traces stay the dense loop's. *)
    let skip_step i _r =
      let p = obs_packed.(i) in
      obs_packed.(i) <- Channel.Packed.silence;
      if tap <> None then fingerprint i p
    in
    (* Covered exactly once, through a decodable link: clear; covered at
       all: busy.  The covered receivers that were scheduled or listen
       join the round's drain set, and only they get a code, unless a tap
       needs every code fingerprinted. *)
    let resolve_words cur lst r =
      for k = 0 to !n_words_touched - 1 do
        let w = words_touched.(k) in
        let o = once.(w) in
        let clear = o land lnot twice.(w) land dec.(w) in
        let base = w * Bitvec.bits_per_word in
        let polled = o land (cur.(w) lor lst.(w)) in
        if tap = None then write_codes obs_packed best_slot base polled clear
        else begin
          write_codes obs_packed best_slot base o clear;
          drain_word skip_step base (o land lnot polled) r
        end;
        cur.(w) <- cur.(w) lor polled;
        once.(w) <- 0;
        twice.(w) <- 0;
        dec.(w) <- 0
      done;
      n_words_touched := 0
    in
    let act_step i r =
      match machines.(i).act r with
      | Silent -> ()
      | Transmit payload -> (
        match counted with
        | Some rows -> fan_out_words rows i payload
        | None -> fan_out i payload)
    in
    (* One pass per polled machine: observe, then completion and the next
       wakeup.  A poll can change any machine state, so its wakeup is
       re-asked after every poll — e.g. an epidemic relay that just
       received the packet now wants its own slot.  [delivered] and
       [next_active] read only their own machine's state (see {!machine}),
       so asking them before higher ids observe sees what the dense loop's
       later Phase 3 sees. *)
    let poll_step i r =
      let p = obs_packed.(i) in
      obs_packed.(i) <- Channel.Packed.silence;
      if tap <> None then fingerprint i p;
      (match machines.(i).observe_packed with
      | Some f -> f r p slots
      | None -> machines.(i).observe r (observation_of_packed slots p));
      check_complete i r;
      schedule_machine i (r + 1)
    in
    let process_round r =
      let cur = sets.(r land 1) in
      stamps := 0;
      (* Drain this round's wakeups into the word set, which also absorbs
         the duplicates [queued] lets through: a non-monotone wake's stale
         entry, or an entry for a round the machine was also stamped for. *)
      while (not (Calendar.is_empty cal)) && Calendar.min_key cal = r do
        set_add cur (Calendar.pop_min cal)
      done;
      (* Phase 1 over the scheduled machines only. *)
      drain act_step ~clear:false cur r;
      let any_tx = slots.count > 0 in
      (* Phases 2 and 3 over scheduled machines and the touched receivers
         that listen in this round; everyone else observes the silence
         implied by the contract.  Round 0 also checks every machine for
         construction-time deliveries. *)
      let lst = listeners r in
      if Option.is_some counted then resolve_words cur lst r
      else begin
        Channel.resolve_packed channel ~touched ~n_touched:!n_touched ~sum_power ~n_decodable
          ~best_power ~best_slot ~out:obs_packed;
        for k = 0 to !n_touched - 1 do
          let i = touched.(k) in
          let w = i / Bitvec.bits_per_word and bit = 1 lsl (i mod Bitvec.bits_per_word) in
          if (cur.(w) lor lst.(w)) land bit <> 0 then cur.(w) <- cur.(w) lor bit
          else skip_step i r
        done
      end;
      drain poll_step ~clear:true cur r;
      if r = 0 then
        for i = 0 to n - 1 do
          check_complete i 0
        done;
      if any_tx then begin
        last_tx := r;
        incr active_rounds
      end
    in
    while (not !stopping) && !round < cap do
      let target =
        if !stamps > 0 then !round
        else if Calendar.is_empty cal then cap
        else min cap (Calendar.min_key cal)
      in
      if target > !round then advance_silent target;
      if (not !stopping) && !round < cap && !round = target then begin
        if check_stop !round then stopping := true
        else begin
          process_round !round;
          (* Tap emission and channel-scratch reset live out here, off
             the per-round hot path of untraced runs; the traced stack
             restores the all-silent background the skipped-round
             digests rely on. *)
          (match tap with
          | None -> ()
          | Some f ->
            f
              {
                round = !round;
                transmitters = List.init slots.count (fun m -> tap_tx.(m));
                observations = Array.copy tap_fp;
              };
            for j = 0 to !n_traced - 1 do
              tap_fp.(traced.(j)) <- 0
            done;
            n_traced := 0);
          reset_touched ();
          incr round
        end
      end
    done);
  {
    rounds_used = !round;
    active_rounds = !active_rounds;
    hit_cap = !round >= cap && !pending > 0;
    delivered = Array.init n (fun i -> machines.(i).delivered ());
    completion_round;
    broadcasts;
  }
