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

type mode = [ `Dense | `Sparse | `Sharded of int ]

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

(* Word sets: ids packed [Bitvec.bits_per_word] to an int, the sparse loops'
   per-round "who runs this phase" sets. *)
let word_set n = Array.make ((n + Bitvec.bits_per_word - 1) / Bitvec.bits_per_word) 0

let set_add set i =
  let w = i / Bitvec.bits_per_word in
  set.(w) <- set.(w) lor (1 lsl (i mod Bitvec.bits_per_word))

(* Ascending drain: [step ctx i r] on every member [i] of [set], lowest id
   first — the dense loop's 0..n-1 order, so loss draws, capture ties,
   slot order and tap order are unchanged — at a cost of one test per
   word plus one call per member.  [~clear] empties the set as it goes. *)
let rec drain_word step ctx base w r =
  if w <> 0 then begin
    step ctx (base + Bitvec.lowest_bit w) r;
    drain_word step ctx base (w land (w - 1)) r
  end

let drain step ctx ~clear set r =
  for wi = 0 to Array.length set - 1 do
    let w = set.(wi) in
    if w <> 0 then begin
      if clear then set.(wi) <- 0;
      drain_word step ctx (wi * Bitvec.bits_per_word) w r
    end
  done

(* One tile of a sharded run: a disjoint slice of the machines plus every
   piece of per-round state the serial sparse loop keeps globally, sized to
   the tile and touched only by the tile's own domain between barriers.
   [members] is ascending, and every array indexed by "local index" li
   refers to machine [members.(li)]. *)
type 'm tile = {
  t_id : int;
  members : int array;
  cal : Calendar.t;  (* wakeup rounds -> local indices *)
  sets : int array array;  (* the serial loop's parity word sets, over local indices *)
  mutable stamps : int;  (* next-round stamps, as in the serial loop *)
  mutable t_pending : int;
  completed : bool array;
  (* channel scratch, mirroring the serial per-receiver aggregates *)
  sum_power : float array;
  n_decodable : int array;
  best_power : float array;
  best_slot : int array;
  obs_packed : int array;
  has_rx : bool array;
  touched : int array;
  mutable n_touched : int;
  (* phase-A output: this tile's transmitters (ascending) and payloads *)
  tx_ids : int array;
  txs : 'm slots;
  (* merged-slot word set for this tile: bit m set iff merged transmitter
     m has a link into the tile.  Written by the coordinator during the
     merge, drained and cleared by the tile in phase B — the halo exchange
     is whole words, not per-transmission lists. *)
  halo : int array;
  (* machines polled this round, for tap fingerprint resets *)
  polled : int array;
  mutable n_polled : int;
}

let run ?(mode : mode = `Sparse) ?rng ?(channel = Channel.ideal) ?stop_when ?(stop_stride = 96)
    ?idle_stop ?tap ?tile_of ~topology ~machines ~waiters ~cap () =
  let n = Topology.size topology in
  if Array.length machines <> n || Array.length waiters <> n then
    invalid_arg "Engine.run: machines/waiters size mismatch";
  let broadcasts = Array.make n 0 in
  let completion_round = Array.make n (-1) in
  (* Outgoing links in CSR form, built once per topology and cached on the
     graph (receivers descending within each row — see Graph.csr): repeated
     runs over one topology stop paying the O(links) rebuild. *)
  let { Graph.out_off; out_rcv; out_pow } = Graph.csr (Topology.graph topology) in
  let loss = channel.Channel.loss_prob in
  let pending = ref 0 in
  Array.iter (fun w -> if w then incr pending) waiters;
  let round = ref 0 in
  (* Stop machinery shared by the sparse and sharded loops (the dense
     reference keeps its own simple counter).  [check_stop r] is the dense
     loop's [stopped] at the top of round r, with its idle counter
     reconstructed as r - 1 - last_tx (consecutive silent rounds ending at
     r - 1), and the same short-circuit order. *)
  let last_tx = ref (-1) in
  (* Rounds with at least one transmission.  All three loops detect that
     condition already (for the idle cut-off), so the count is
     mode-independent; it is the denominator of the words/active-round
     allocation gate. *)
  let active_rounds = ref 0 in
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
  let run_serial (mode : [ `Dense | `Sparse ]) =
    (* Flat per-receiver channel aggregates instead of transmission lists:
       resolution only needs the sensed power sum, the strongest decodable
       signal, and the signal counts, so the hot loop allocates nothing.
       [Channel.resolve_packed] turns the aggregates into packed codes;
       equivalence with the reference [Channel.resolve] is covered by a
       property test. *)
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
    let polled = match tap with None -> [||] | Some _ -> Array.make (max 1 n) 0 in
    let n_polled = ref 0 in
    (* Transmitter ids per slot, mirrored out of [slots] so the trace
       record can be built outside the hot functions without a per-round
       cons list. *)
    let tap_tx = match tap with None -> [||] | Some _ -> Array.make (max 1 n) 0 in
    let fan_out i payload =
      broadcasts.(i) <- broadcasts.(i) + 1;
      let slot = slots.count in
      if tap <> None then begin
        tap_tx.(slot) <- i;
        slot_fp.(slot) <- fingerprint_payload payload
      end;
      slots_push slots n payload;
      for k = out_off.(i) to out_off.(i + 1) - 1 do
        let receiver = out_rcv.(k) and power = out_pow.(k) in
        if not has_rx.(receiver) then begin
          has_rx.(receiver) <- true;
          touched.(!n_touched) <- receiver;
          incr n_touched
        end;
        sum_power.(receiver) <- sum_power.(receiver) +. power;
        let lost =
          power >= 1.0 && loss > 0.0
          &&
          match rng with
          | Some r -> Rng.bernoulli r loss
          | None -> invalid_arg "Engine.run: loss_prob > 0 requires an rng"
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
        obs_packed.(i) <- 0;
        has_rx.(i) <- false
      done;
      n_touched := 0;
      slots.count <- 0
    in
    match mode with
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
           contract covers r or a transmission reached it; the contract
           promises that in all other rounds act returns Silent without
           side effects and observe of the implied Silence is a no-op;
         - scheduled machines are processed in ascending id (see [drain]),
           like the dense 0..n-1 sweep, so loss draws, capture ties and tap
           transmitter order are identical;
         - the stop conditions (waiters, idle cut-off, strided stop_when)
           are evaluated for skipped rounds exactly as the dense loop would
           have, including the call count of the stateful stop_when;
         - a tap sees one digest per round, skipped rounds fingerprinting
           as uniform silence. *)
      let cal = Calendar.create ~capacity:(2 * (n + 1)) () in
      (* Word sets by round parity: [sets.(r land 1)] holds round r's
         scheduled machines, then also its touched receivers; the last
         drain of the round empties it.  Parity only drifts over skipped
         rounds, and then both sets are empty. *)
      let sets = [| word_set n; word_set n |] in
      (* Machines stamped directly for the very next round, bypassing the
         heap.  Inside a relevant TDMA interval a machine wakes six rounds
         in a row; paying a pop + push per poll would cost more than the
         act/observe calls the sparse loop saves, so only wakeups that
         actually jump ahead go through the calendar.  [stamps] counts the
         stamps for the next round to run; it is reset as a round starts. *)
      let stamps = ref 0 in
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
          else Calendar.add cal na i
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
      let act_step () i r =
        match machines.(i).act r with
        | Silent -> ()
        | Transmit payload -> fan_out i payload
      in
      let observe_step () i r =
        let p = obs_packed.(i) in
        if tap <> None then begin
          tap_fp.(i) <- fingerprint_packed slot_fp p;
          polled.(!n_polled) <- i;
          incr n_polled
        end;
        match machines.(i).observe_packed with
        | Some f -> f r p slots
        | None -> machines.(i).observe r (observation_of_packed slots p)
      in
      (* A poll can change any machine state, so its wakeup is re-asked
         after every poll — e.g. an epidemic relay that just received the
         packet now wants its own slot. *)
      let finish_step () i r =
        check_complete i r;
        schedule_machine i (r + 1)
      in
      let process_round r =
        let cur = sets.(r land 1) in
        stamps := 0;
        (* Drain this round's wakeups into the word set, which also dedupes
           multiple calendar entries per machine. *)
        while (not (Calendar.is_empty cal)) && Calendar.min_key cal = r do
          set_add cur (Calendar.pop_min cal)
        done;
        (* Phase 1 over the scheduled machines only. *)
        drain act_step () ~clear:false cur r;
        let any_tx = slots.count > 0 in
        (* Phases 2 and 3 over scheduled machines and touched receivers;
           everyone else observes the silence implied by the contract.
           Round 0 also checks every machine for construction-time
           deliveries. *)
        Channel.resolve_packed channel ~touched ~n_touched:!n_touched ~sum_power ~n_decodable
          ~best_power ~best_slot ~out:obs_packed;
        for k = 0 to !n_touched - 1 do
          set_add cur touched.(k)
        done;
        drain observe_step () ~clear:false cur r;
        drain finish_step () ~clear:true cur r;
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
               the per-round hot path of untraced runs; the polled stack
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
              for j = 0 to !n_polled - 1 do
                tap_fp.(polled.(j)) <- 0
              done;
              n_polled := 0);
            reset_touched ();
            incr round
          end
        end
      done
  in
  (* The sharded loop is the sparse loop cut into [tiles] disjoint slices
     of machines, one domain each, synchronized by a 4-barrier round:

       B0  coordinator publishes the round number (or the stop command)
       A   every tile polls its scheduled machines and collects their
           transmissions, in ascending id (no fan-out yet)
       B1  all transmissions collected
           coordinator merges them into the global slots buffer, marks each
           tile's halo words, and draws the per-link loss coins in exactly
           the serial sequence
       B2  merged slots + halo words + loss outcomes published
       B   every tile fans the slots named by its own halo words into its
           receivers (ascending slot order, original within-row link
           order), resolves, observes, completes and reschedules
       B3  round effects done; coordinator emits the tap digest, sums
           pending, and decides stop / skip / next round

     Determinism: the only RNG consumer (loss) runs serially on the
     coordinator in the serial draw order; per-receiver float accumulation
     and capture tie-breaks see transmitters in the same ascending order as
     the serial drain; and machines are only ever touched by their owning
     tile, in ascending id within the tile.  Cross-tile visibility is by
     barrier only: tiles write before a barrier what others read after it. *)
  let run_sharded tiles tile_of =
    let counts = Array.make tiles 0 in
    for i = 0 to n - 1 do
      counts.(tile_of.(i)) <- counts.(tile_of.(i)) + 1
    done;
    let local_ix = Array.make n 0 in
    let fill = Array.make tiles 0 in
    let members = Array.init tiles (fun t -> Array.make counts.(t) 0) in
    for i = 0 to n - 1 do
      let t = tile_of.(i) in
      members.(t).(fill.(t)) <- i;
      local_ix.(i) <- fill.(t);
      fill.(t) <- fill.(t) + 1
    done;
    (* Per-(transmitter, tile) segments of the CSR rows: phase B walks only
       the slice of each row that lands in its own tile, in the original
       within-row order (receivers descending), via the [seg_orig]
       indirection into out_rcv/out_pow.  Without this every tile would
       rescan every full row. *)
    let links_total = out_off.(n) in
    let seg_off = Array.make ((n * tiles) + 1) 0 in
    for i = 0 to n - 1 do
      for k = out_off.(i) to out_off.(i + 1) - 1 do
        let cell = (i * tiles) + tile_of.(out_rcv.(k)) in
        seg_off.(cell + 1) <- seg_off.(cell + 1) + 1
      done
    done;
    for c = 1 to n * tiles do
      seg_off.(c) <- seg_off.(c) + seg_off.(c - 1)
    done;
    let seg_orig = Array.make (max 1 links_total) 0 in
    let cursor = Array.init (n * tiles) (fun c -> seg_off.(c)) in
    for i = 0 to n - 1 do
      for k = out_off.(i) to out_off.(i + 1) - 1 do
        let cell = (i * tiles) + tile_of.(out_rcv.(k)) in
        seg_orig.(cursor.(cell)) <- k;
        cursor.(cell) <- cursor.(cell) + 1
      done
    done;
    (* Loss outcomes for the current round, indexed like the CSR links;
       written only by the coordinator between B1 and B2. *)
    let lost = if loss > 0.0 then Bytes.make (max 1 links_total) '\000' else Bytes.empty in
    let tile_make t_id =
      let m = members.(t_id) in
      let len = Array.length m in
      let t_pending = ref 0 in
      Array.iter (fun i -> if waiters.(i) then incr t_pending) m;
      {
        t_id;
        members = m;
        cal = Calendar.create ~capacity:(2 * (len + 1)) ();
        sets = [| word_set len; word_set len |];
        stamps = 0;
        t_pending = !t_pending;
        completed = Array.make (max 1 len) false;
        sum_power = Array.make (max 1 len) 0.0;
        n_decodable = Array.make (max 1 len) 0;
        best_power = Array.make (max 1 len) 0.0;
        best_slot = Array.make (max 1 len) 0;
        obs_packed = Array.make (max 1 len) 0;
        has_rx = Array.make (max 1 len) false;
        touched = Array.make (max 1 len) 0;
        n_touched = 0;
        tx_ids = Array.make (max 1 len) 0;
        txs = { payloads = [||]; count = 0 };
        halo = word_set n;
        polled = Array.make (if tap = None then 0 else len) 0;
        n_polled = 0;
      }
    in
    let tile_arr = Array.init tiles tile_make in
    let schedule_tile t li q =
      let na = machines.(t.members.(li)).next_active q in
      let na = if na < q then q else na in
      if na < cap then begin
        if na = q then begin
          set_add t.sets.(q land 1) li;
          t.stamps <- t.stamps + 1
        end
        else Calendar.add t.cal na li
      end
    in
    (* Initial scheduling, tile by tile: the serial init in member order. *)
    Array.iter (fun t -> Array.iteri (fun li _ -> schedule_tile t li 0) t.members) tile_arr;
    (* Round 0 always executes (construction-time deliveries): force-stamp
       machine 0 in whichever tile owns it, like the serial loop does. *)
    if cap > 0 && n > 0 then begin
      let t = tile_arr.(tile_of.(0)) in
      set_add t.sets.(0) local_ix.(0);
      t.stamps <- t.stamps + 1
    end;
    (* Merged transmissions of the current round, globally ascending;
       written by the coordinator between B1 and B2.  [slots.count] is the
       merged count. *)
    let mtx_ids = Array.make (max 1 n) 0 in
    let slots = { payloads = [||]; count = 0 } in
    let merge_cursor = Array.make tiles 0 in
    (* Merge scratch, in place of per-call refs: [0] candidate tile, [1]
       candidate id, [2] loop flag. *)
    let merge_scratch = Array.make 3 0 in
    let tap_fp = match tap with None -> [||] | Some _ -> Array.make n 0 in
    let slot_fp = match tap with None -> [||] | Some _ -> Array.make (max 1 n) 0 in
    (* The round command, published by barrier B0: the round to process, or
       -1 to shut the team down. *)
    let cmd = ref 0 in
    let team = Shard.Team.create ~tiles in
    let tile_act t li r =
      let i = t.members.(li) in
      match machines.(i).act r with
      | Silent -> ()
      | Transmit payload ->
        broadcasts.(i) <- broadcasts.(i) + 1;
        t.tx_ids.(t.txs.count) <- i;
        slots_push t.txs (Array.length t.members) payload
    in
    let phase_a t r =
      let cur = t.sets.(r land 1) in
      t.stamps <- 0;
      while (not (Calendar.is_empty t.cal)) && Calendar.min_key t.cal = r do
        set_add cur (Calendar.pop_min t.cal)
      done;
      t.txs.count <- 0;
      drain tile_act t ~clear:false cur r
    in
    let merge_and_draw () =
      (* Tiles partition the ids and each tile's list is ascending, so a
         cursor merge yields the global ascending transmitter order the
         serial Phase-1 drain produces.  Each merged slot also marks the
         halo word bit of every tile its CSR row reaches. *)
      slots.count <- 0;
      Array.fill merge_cursor 0 tiles 0;
      merge_scratch.(2) <- 1;
      while merge_scratch.(2) = 1 do
        merge_scratch.(0) <- -1;
        merge_scratch.(1) <- max_int;
        for t = 0 to tiles - 1 do
          if merge_cursor.(t) < tile_arr.(t).txs.count then begin
            let id = tile_arr.(t).tx_ids.(merge_cursor.(t)) in
            if id < merge_scratch.(1) then begin
              merge_scratch.(1) <- id;
              merge_scratch.(0) <- t
            end
          end
        done;
        if merge_scratch.(0) < 0 then merge_scratch.(2) <- 0
        else begin
          let t = tile_arr.(merge_scratch.(0)) in
          let c = merge_cursor.(merge_scratch.(0)) in
          let i = merge_scratch.(1) in
          let slot = slots.count in
          mtx_ids.(slot) <- i;
          let payload = t.txs.payloads.(c) in
          if tap <> None then slot_fp.(slot) <- fingerprint_payload payload;
          slots_push slots n payload;
          for td = 0 to tiles - 1 do
            let cell = (i * tiles) + td in
            if seg_off.(cell + 1) > seg_off.(cell) then set_add tile_arr.(td).halo slot
          done;
          merge_cursor.(merge_scratch.(0)) <- c + 1
        end
      done;
      (* Per-link loss coins, drawn serially here in exactly the order the
         serial fan-out consumes them: transmitters ascending, links in
         within-row order, decodable links only. *)
      if loss > 0.0 then
        for m = 0 to slots.count - 1 do
          let i = mtx_ids.(m) in
          for k = out_off.(i) to out_off.(i + 1) - 1 do
            if out_pow.(k) >= 1.0 then begin
              let l =
                match rng with
                | Some r -> Rng.bernoulli r loss
                | None -> invalid_arg "Engine.run: loss_prob > 0 requires an rng"
              in
              Bytes.set lost k (if l then '\001' else '\000')
            end
          done
        done
    in
    let check_complete t li r =
      if not t.completed.(li) then begin
        match machines.(t.members.(li)).delivered () with
        | Some _ ->
          t.completed.(li) <- true;
          completion_round.(t.members.(li)) <- r;
          if waiters.(t.members.(li)) then t.t_pending <- t.t_pending - 1
        | None -> ()
      end
    in
    (* Fan-in of merged slot [m] into this tile: the row's in-tile slice in
       original order. *)
    let tile_fan_in t m _r =
      let cell = (mtx_ids.(m) * tiles) + t.t_id in
      for s = seg_off.(cell) to seg_off.(cell + 1) - 1 do
        let k = seg_orig.(s) in
        let power = out_pow.(k) in
        let lr = local_ix.(out_rcv.(k)) in
        if not t.has_rx.(lr) then begin
          t.has_rx.(lr) <- true;
          t.touched.(t.n_touched) <- lr;
          t.n_touched <- t.n_touched + 1
        end;
        t.sum_power.(lr) <- t.sum_power.(lr) +. power;
        let lost_link = power >= 1.0 && loss > 0.0 && Bytes.get lost k <> '\000' in
        if power >= 1.0 && not lost_link then begin
          t.n_decodable.(lr) <- t.n_decodable.(lr) + 1;
          if power > t.best_power.(lr) then begin
            t.best_power.(lr) <- power;
            t.best_slot.(lr) <- m
          end
        end
      done
    in
    let tile_observe t li r =
      let i = t.members.(li) in
      let p = t.obs_packed.(li) in
      if tap <> None then begin
        tap_fp.(i) <- fingerprint_packed slot_fp p;
        t.polled.(t.n_polled) <- i;
        t.n_polled <- t.n_polled + 1
      end;
      match machines.(i).observe_packed with
      | Some f -> f r p slots
      | None -> machines.(i).observe r (observation_of_packed slots p)
    in
    let tile_finish t li r =
      check_complete t li r;
      schedule_tile t li (r + 1)
    in
    let phase_b t r =
      (* Fan-in over the slots named by this tile's halo words: slot bits
         ascending (= merged transmitters ascending), so per-receiver sums,
         capture ties and loss lookups match the serial fan-out bit for
         bit.  The drain leaves the halo words zero. *)
      drain tile_fan_in t ~clear:true t.halo r;
      Channel.resolve_packed channel ~touched:t.touched ~n_touched:t.n_touched
        ~sum_power:t.sum_power ~n_decodable:t.n_decodable ~best_power:t.best_power
        ~best_slot:t.best_slot ~out:t.obs_packed;
      let cur = t.sets.(r land 1) in
      for k = 0 to t.n_touched - 1 do
        set_add cur t.touched.(k)
      done;
      drain tile_observe t ~clear:false cur r;
      drain tile_finish t ~clear:true cur r;
      if r = 0 then
        for li = 0 to Array.length t.members - 1 do
          check_complete t li 0
        done;
      for k = 0 to t.n_touched - 1 do
        let lr = t.touched.(k) in
        t.sum_power.(lr) <- 0.0;
        t.n_decodable.(lr) <- 0;
        t.best_power.(lr) <- 0.0;
        t.best_slot.(lr) <- 0;
        t.obs_packed.(lr) <- 0;
        t.has_rx.(lr) <- false
      done;
      t.n_touched <- 0
    in
    let worker p =
      let t = tile_arr.(p) in
      let running = ref true in
      while !running do
        Shard.Team.await team;
        let c = !cmd in
        if c < 0 then running := false
        else begin
          Shard.Team.guard team (fun () -> phase_a t c);
          Shard.Team.await team;
          (* coordinator merges and draws losses *)
          Shard.Team.await team;
          Shard.Team.guard team (fun () -> phase_b t c);
          Shard.Team.await team
        end
      done
    in
    let next_target () =
      if Array.exists (fun t -> t.stamps > 0) tile_arr then !round
      else begin
        let mn = ref cap in
        Array.iter
          (fun t -> if not (Calendar.is_empty t.cal) then mn := min !mn (Calendar.min_key t.cal))
          tile_arr;
        !mn
      end
    in
    let emit_tap r =
      match tap with
      | None -> ()
      | Some f ->
        f
          {
            round = r;
            transmitters = List.init slots.count (fun m -> mtx_ids.(m));
            observations = Array.copy tap_fp;
          };
        Array.iter
          (fun t ->
            for j = 0 to t.n_polled - 1 do
              tap_fp.(t.polled.(j)) <- 0
            done;
            t.n_polled <- 0)
          tile_arr
    in
    let main () =
      let t0 = tile_arr.(0) in
      while (not !stopping) && !round < cap do
        let target = next_target () in
        if target > !round then advance_silent target;
        if (not !stopping) && !round < cap && !round = target then begin
          if check_stop !round then stopping := true
          else begin
            let r = !round in
            cmd := r;
            Shard.Team.await team;
            Shard.Team.guard team (fun () -> phase_a t0 r);
            Shard.Team.await team;
            Shard.Team.guard team merge_and_draw;
            Shard.Team.await team;
            Shard.Team.guard team (fun () -> phase_b t0 r);
            Shard.Team.await team;
            (* Post-round, workers parked at the next B0: gather per-tile
               outcomes and run the serial-side bookkeeping. *)
            emit_tap r;
            let any = ref false in
            let p = ref 0 in
            Array.iter
              (fun t ->
                if t.txs.count > 0 then any := true;
                p := !p + t.t_pending)
              tile_arr;
            if !any then begin
              last_tx := r;
              incr active_rounds
            end;
            pending := !p;
            if Shard.Team.failed team then stopping := true;
            incr round
          end
        end
      done;
      cmd := -1;
      Shard.Team.await team
    in
    Shard.Team.run team ~worker ~main
  in
  (match mode with
  | (`Dense | `Sparse) as m -> run_serial m
  | `Sharded requested ->
    let tiles = max 1 (min requested (max 1 n)) in
    let tile_of =
      match tile_of with
      | Some a ->
        if Array.length a <> n then invalid_arg "Engine.run: tile_of length mismatch";
        Array.iter
          (fun t -> if t < 0 || t >= tiles then invalid_arg "Engine.run: tile_of entry out of range")
          a;
        a
      | None -> Shard.partition topology ~tiles
    in
    if tiles <= 1 then run_serial `Sparse else run_sharded tiles tile_of);
  {
    rounds_used = !round;
    active_rounds = !active_rounds;
    hit_cap = !round >= cap && !pending > 0;
    delivered = Array.init n (fun i -> machines.(i).delivered ());
    completion_round;
    broadcasts;
  }
