(* Slot-selective jamming (after Tseng–Vaidya's selective-broadcast
   adversary): instead of spraying veto rounds everywhere, the jammer
   knows the TDMA schedule and spends its budget only on the intervals
   owned by the source slot — the cheapest way to starve the whole
   network of authenticated bits.

   The predicate tests the slot before touching its RNG, so the dense
   loop draws from the private stream exactly in source-slot rounds —
   the same rounds the wakeup contract covers — keeping the sparse and
   dense loops byte-identical. *)

let source_jammer ~schedule ~rng ~budget ~probability =
  let slot = Schedule.source_slot in
  let relevant = Array.init (Schedule.cycle schedule) (fun s -> s = slot) in
  let wake = Schedule.next_relevant_round schedule ~relevant in
  Jammer.scripted ~budget ~next_active:wake (fun ~round ~phase:_ ->
      Schedule.active_slot schedule ~interval:(Schedule.interval_of_round round) = slot
      && Rng.bernoulli rng probability)
