(** Synchronous round engine.

    Time advances in slots ("rounds", Section 3); in each round every node
    either transmits or listens, and each listener observes the resolution
    of all transmissions that reach it (silence / clear message / busy).
    This is the substrate replacing the WSNet simulator: the paper drives
    its protocols from a synchronised TDMA clock, which a synchronous engine
    reproduces exactly, while the channel model supplies the realistic
    effects (capture, loss) the paper notes its analysis omits.

    Because the protocols are TDMA-scheduled, most machines are
    deterministically silent in most rounds; the default [`Sparse] loop
    exploits that with a calendar of machine wakeups (the discrete-event
    trick WSNet itself uses), skipping idle rounds outright and polling
    only the machines whose {!machine.next_active} contract — or an
    incoming transmission in a round they listen to (see [listeners] in
    {!run}) — makes the round meaningful to them.  The
    [`Dense] loop, which polls everything every round, is kept as the
    executable reference; a property test pins the two byte-identical.

    The engine is polymorphic in the on-air payload type ['m]. *)

type 'm action = Silent | Transmit of 'm

type 'm slots = { mutable payloads : 'm array; mutable count : int }
(** The current round's transmissions in global ascending-transmitter
    order, reused across rounds.  Packed observers decode a clear code [p]
    as [payloads.(Channel.Packed.slot p)].  Only the first [count] entries
    are meaningful, and only during the observe phase of the round. *)

type 'm machine = {
  act : int -> 'm action;  (** called once per polled round with the round number *)
  observe : int -> 'm Channel.observation -> unit;
      (** called once per polled round, after all [act]s, with what the
          node's radio observed *)
  observe_packed : (int -> int -> 'm slots -> unit) option;
      (** Allocation-free fast path for [observe]: when present, the engine
          calls [f round code slots] with a {!Channel.Packed} code instead
          of materialising the observation variant.  Must be behaviourally
          identical to [observe] on the observation the code decodes to;
          the equivalence suite runs every protocol both ways.  [None]
          falls back to [observe]. *)
  delivered : unit -> Bitvec.t option;
      (** the broadcast payload this node has accepted, once complete;
          like [next_active], it may read only this machine's own state *)
  next_active : int -> int;
      (** Wakeup contract: [next_active r] is the earliest round [>= r] at
          which the machine may transmit or needs to distinguish the
          channel from silence ([max_int]: never again).  For any round
          the contract does not cover, the machine promises that [act]
          would return [Silent] without meaningful side effects and that
          [observe]-ing the implied [Silence] is a no-op — the sparse
          engine then skips both calls.  Transmissions that reach the node
          are delivered through [observe] whatever the contract says,
          except in a round whose [listeners] set (see {!run}) leaves the
          node out; the contract is re-queried after every poll (so it may
          depend on state updated by a reception).  It may read only this
          machine's own state, or state changed in [act] (a jammer's
          budget): the sparse loop asks it, and [delivered], right after
          the machine's own observe, before higher ids observe.  Use
          {!always_active} to opt out of skipping. *)
}

val boxed_machine : 'm machine -> 'm machine
(** [boxed_machine m] is [m] with the packed fast path disabled, forcing
    the variant [observe] route — the equivalence suite's lever for pinning
    the two paths byte-identical. *)

val always_active : int -> int
(** The identity contract: wake me every round (dense behaviour for this
    machine; the safe default for ad-hoc test machines). *)

val never_active : int -> int
(** [fun _ -> max_int]: never wake me (receptions still arrive). *)

val silent_machine : 'm machine
(** A machine that never transmits and never delivers (crashed device). *)

val word_set : int -> int array
(** An empty word set over [n] ids: ids packed {!Bitvec.bits_per_word} to
    an int, the format of {!run}'s [listeners]. *)

val set_add : int array -> int -> unit
(** [set_add set i] adds id [i] to a word set. *)

type mode = [ `Dense | `Sparse ]
(** [`Sparse] (the default): calendar-driven wakeup loop.  [`Dense]: the
    reference loop polling all machines every round.  Both produce
    byte-identical results — including tap traces — for machines
    honouring the {!machine.next_active} contract and the [listeners]
    contract of {!run}; the mode is purely a performance choice. *)

type result = {
  rounds_used : int;  (** rounds executed before stopping *)
  active_rounds : int;
      (** rounds in which at least one machine transmitted; mode-independent
          (the sparse loop skips only all-silent rounds), and the denominator
          of the allocation-rate gate (minor words / active round) *)
  hit_cap : bool;  (** true when stopped by the round cap *)
  delivered : Bitvec.t option array;  (** per-node accepted message *)
  completion_round : int array;  (** first round with a delivery; -1 if none *)
  broadcasts : int array;  (** transmissions made per node *)
}

type round_digest = {
  round : int;
  transmitters : int list;  (** ids that transmitted, ascending *)
  observations : int array;
      (** per-node fingerprint of what the radio resolved:
          0 = silence, 1 = busy, >= 2 = clear (payload hash) *)
}
(** A compact per-round summary of all channel activity, for trace
    comparison (see [Check.Determinism]).  Fingerprints collapse payloads
    to a hash: equal traces are necessary for equal runs, and a fingerprint
    mismatch pinpoints the first divergent round. *)

val fingerprint_observation : 'm Channel.observation -> int

val run :
  ?mode:mode ->
  ?rng:Rng.t ->
  ?channel:Channel.params ->
  ?stop_when:(unit -> bool) ->
  ?stop_stride:int ->
  ?idle_stop:int ->
  ?tap:(round_digest -> unit) ->
  ?listeners:(int -> int array) ->
  topology:Topology.t ->
  machines:'m machine array ->
  waiters:bool array ->
  cap:int ->
  unit ->
  result
(** Run until every node marked in [waiters] has delivered (or [stop_when]
    returns true, polled every [stop_stride] rounds — default 96, chosen to
    keep progress-based cut-offs off the per-round hot path; it must be at
    least 1), or until [cap] rounds.
    [mode] selects the loop implementation (default [`Sparse]); results
    are identical, so the choice is purely a performance one, but pass it
    explicitly — the source lint flags call sites that leave it implicit.
    [tap], if given, receives one [round_digest] per executed round (after
    all observations of that round were delivered); rounds the sparse loop
    skips produce all-silent digests, so traces are mode-independent;
    untraced runs pay nothing for the hook.
    [listeners r] is round [r]'s listener set, called once per executed
    round, in the loop's own word format: ids packed
    {!Bitvec.bits_per_word} to an int, [⌈n / bits_per_word⌉] words.  A
    machine outside it promises that observing any code at [r] changes
    none of its later actions, deliveries or wake answers.  So the
    [`Sparse] loop polls a receiver a transmission reaches only if it is
    in the set or was scheduled for [r] anyway; scheduled machines are
    polled as before, with their true code.  The filter acts after the
    channel is resolved, so loss draws are unchanged, no code survives
    into a later round for a receiver left unpolled, and a [tap] still
    fingerprints every reached receiver's true code.  A superset is
    always safe; the default is every machine.  [`Dense] ignores the
    sets: it is the oracle the equivalence suite holds the filter to.
    [idle_stop], if given, also stops the run after that many consecutive
    rounds in which nobody transmitted: all machines here are
    schedule-driven, so a silent schedule cycle (beyond the one silent
    cycle an all-zero parity/data pair can produce) means the network can
    never make progress again — e.g. disconnected nodes in the crash
    experiments.  Choose it of at least two full schedule cycles.
    [channel] defaults to [Channel.ideal].  [rng] is needed whenever the
    channel has losses.  On a collision-only channel (infinite capture
    ratio, no loss) the [`Sparse] loop resolves receptions by counting
    coverage over {!Graph.csr}'s word entries where the topology has them,
    and by the per-link power sums of {!Channel.resolve_packed} elsewhere;
    [`Dense] always sums powers, so the mode-equivalence suite holds the
    two rules identical.  [machines] and [waiters] must have one entry per
    node of the topology.  Raises [Invalid_argument] at entry on a size
    mismatch, a [stop_stride] below 1, a NaN [loss_prob] or
    [capture_ratio], or a positive [loss_prob] without [rng]. *)
