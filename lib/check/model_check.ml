(* Bounded model checking of the 2Bit frame and the 1Hop stream.

   The model is the paper's single-hop analysis setting: one neighbourhood
   in which every device hears every other (Section 3), an ideal channel,
   and a Byzantine adversary that chooses, for every 6-round phase, whether
   to put energy on the channel — it can add activity but never erase it
   (the no-forged-silence axiom).  Within a broadcast budget β the state
   space is finite and tiny, so we enumerate it exhaustively instead of
   sampling it. *)

type phase_event = {
  interval : int;
  phase : int;
  sender_tx : bool;
  receiver_tx : bool array;
  adversary_tx : bool;
  heard : bool array;  (* index 0 = sender, 1.. = receivers *)
}

type counterexample = {
  invariant : string;
  detail : string;
  setup : string;
  budget : int;
  spent : int;
  trace : phase_event list;
}

type outcome = Pass of { configurations : int } | Fail of counterexample

exception Violation of (string * string)
(* (invariant, detail): raised mid-simulation, caught by the enumerators
   which attach the setup and the trace. *)

(* --- the honest parties ------------------------------------------------ *)

(* Every honest party is the protocol's own {!Two_bit} machine.  What a
   receiver senses of a phase's activity is pluggable, so that tests (and
   the [--seed-violation] CLI flag) can verify the checker catches a
   broken one. *)
type impl = int -> bool -> bool

let reference _phase activity = activity

(* The seeded bug: deaf during the veto round R5 — exactly the mistake the
   protocol's safety argument forbids. *)
let faulty_skip_veto phase activity = activity && phase <> 4

(* --- one adversarially scheduled 6-round frame ------------------------ *)

let popcount mask =
  let rec go m acc = if m = 0 then acc else go (m lsr 1) (acc + (m land 1)) in
  go mask 0

(* [jam] is a 6-bit mask: bit p set = the adversary transmits in phase p.
   Every transmission is heard by every other party (clique neighbourhood,
   half-duplex radios: a transmitter does not sense itself).  The trace
   records the channel; receivers sense it through [impl]. *)
let run_frame impl ~interval sender receivers ~jam trace =
  for phase = 0 to 5 do
    let s_tx = Two_bit.act sender ~phase in
    let r_tx = Array.map (fun r -> Two_bit.act r ~phase) receivers in
    let adversary_tx = jam land (1 lsl phase) <> 0 in
    let any_receiver_except i =
      let found = ref false in
      Array.iteri (fun j tx -> if j <> i && tx then found := true) r_tx;
      !found
    in
    let heard =
      Array.init
        (1 + Array.length receivers)
        (fun q ->
          if q = 0 then adversary_tx || any_receiver_except (-1)
          else adversary_tx || s_tx || any_receiver_except (q - 1))
    in
    trace := { interval; phase; sender_tx = s_tx; receiver_tx = r_tx; adversary_tx; heard } :: !trace;
    Two_bit.observe sender ~phase ~activity:heard.(0);
    Array.iteri
      (fun i r -> Two_bit.observe r ~phase ~activity:(impl phase heard.(i + 1)))
      receivers
  done

(* --- the 2Bit frame checker ------------------------------------------ *)

let bit_pair_to_string b1 b2 = Printf.sprintf "(%d,%d)" (Bool.to_int b1) (Bool.to_int b2)

let check_frame_invariants ~b1 ~b2 ~spent sender receivers =
  if not (Two_bit.finished sender) then
    raise (Violation ("sender-outcome-known", "sender has no outcome after phase 5"));
  Array.iteri
    (fun i r ->
      if not (Two_bit.finished r) then
        raise
          (Violation
             ("receiver-outcome-known", Printf.sprintf "receiver %d has no outcome after phase 4" i))
      else if Two_bit.succeeded r && (Two_bit.bit1 r <> b1 || Two_bit.bit2 r <> b2) then
        raise
          (Violation
             ( "receiver-no-forgery",
               Printf.sprintf "receiver %d accepted %s but the sender sent %s" i
                 (bit_pair_to_string (Two_bit.bit1 r) (Two_bit.bit2 r))
                 (bit_pair_to_string b1 b2) )))
    receivers;
  if Two_bit.succeeded sender then
    Array.iteri
      (fun i r ->
        if not (Two_bit.succeeded r) then
          raise
            (Violation
               ( "sender-receiver-agreement",
                 Printf.sprintf "sender reports success but receiver %d failed" i )))
      receivers;
  if spent = 0 then begin
    if not (Two_bit.succeeded sender) then
      raise (Violation ("unattacked-frame-succeeds", "sender failed without any adversary broadcast"));
    Array.iteri
      (fun i r ->
        if not (Two_bit.succeeded r) then
          raise
            (Violation
               ( "unattacked-frame-succeeds",
                 Printf.sprintf "receiver %d failed without any adversary broadcast" i )))
      receivers
  end

let check_two_bit ?(impl = reference) ?(receivers = 2) ~budget () =
  if receivers < 1 then invalid_arg "Model_check.check_two_bit: receivers < 1";
  if budget < 0 then invalid_arg "Model_check.check_two_bit: budget < 0";
  let configurations = ref 0 in
  let failure = ref None in
  let bools = [ false; true ] in
  List.iter
    (fun b1 ->
      List.iter
        (fun b2 ->
          for jam = 0 to 63 do
            let spent = popcount jam in
            if spent <= budget && !failure = None then begin
              incr configurations;
              let sender = Two_bit.create () in
              Two_bit.send sender ~b1 ~b2;
              let rs =
                Array.init receivers (fun _ ->
                    let r = Two_bit.create () in
                    Two_bit.receive r;
                    r)
              in
              let trace = ref [] in
              try
                run_frame impl ~interval:0 sender rs ~jam trace;
                check_frame_invariants ~b1 ~b2 ~spent sender rs
              with Violation (invariant, detail) ->
                failure :=
                  Some
                    {
                      invariant;
                      detail;
                      setup =
                        Printf.sprintf "2Bit frame: b1=%d b2=%d, %d receiver(s)" (Bool.to_int b1)
                          (Bool.to_int b2) receivers;
                      budget;
                      spent;
                      trace = List.rev !trace;
                    }
            end
          done)
        bools)
    bools;
  match !failure with
  | Some c -> Fail c
  | None -> Pass { configurations = !configurations }

(* --- the 1Hop stream checker ----------------------------------------- *)

(* All per-interval 6-bit jam masks with a total budget of [budget]
   broadcasts, enumerated exhaustively. *)
let jam_schedules ~intervals ~budget =
  let out = ref [] in
  let current = Array.make intervals 0 in
  let rec go interval remaining =
    if interval = intervals then out := Array.copy current :: !out
    else
      for jam = 0 to 63 do
        let cost = popcount jam in
        if cost <= remaining then begin
          current.(interval) <- jam;
          go (interval + 1) (remaining - cost)
        end
      done;
    if interval < intervals then current.(interval) <- 0
  in
  go 0 budget;
  !out

let message_to_string bits =
  String.concat "" (List.map (fun b -> if b then "1" else "0") bits)

let run_stream impl ~message ~jam ~budget trace =
  let intervals = Array.length jam in
  let len = List.length message in
  let spent = Array.fold_left (fun acc m -> acc + popcount m) 0 jam in
  let sender_stream = One_hop.Sender.create () in
  List.iter (fun bit -> One_hop.Sender.push sender_stream bit) message;
  let receiver_stream = One_hop.Receiver.create () in
  let check_prefix () =
    let received = One_hop.Receiver.received receiver_stream in
    List.iteri
      (fun i bit ->
        if i < received && One_hop.Receiver.get receiver_stream i <> bit then
          raise
            (Violation
               ( "stream-prefix",
                 Printf.sprintf "receiver stream bit %d is %d, the source sent %d" i
                   (Bool.to_int (One_hop.Receiver.get receiver_stream i))
                   (Bool.to_int bit) )))
      message
  in
  let sender = Two_bit.create () and receiver = Two_bit.create () in
  for interval = 0 to intervals - 1 do
    (* The sender's own-slot rule, exactly as the protocols run it: the
       2Bit sender while bits remain, the blocker once the stream is
       drained. *)
    One_hop.Sender.arm sender_stream sender;
    Two_bit.receive receiver;
    run_frame impl ~interval sender [| receiver |] ~jam:jam.(interval) trace;
    if not (Two_bit.finished receiver) then
      raise (Violation ("receiver-outcome-known", "no outcome after the frame"));
    if Two_bit.succeeded receiver then begin
      let e1 = Two_bit.bit1 receiver and e2 = Two_bit.bit2 receiver in
      if Two_bit.sending sender then begin
        let parity = Two_bit.bit1 sender and data = Two_bit.bit2 sender in
        if e1 <> parity || e2 <> data then
          raise
            (Violation
               ( "frame-no-forgery",
                 Printf.sprintf "interval %d: accepted %s, sent %s" interval
                   (bit_pair_to_string e1 e2) (bit_pair_to_string parity data) ))
      end
      else if e1 || e2 then
        (* A blocked (idle-sender) interval: the watch vetoes any injected
           data, so the only acceptable reading is the silence alias
           <0,0>. *)
        raise
          (Violation
             ( "blocked-frame-silent-alias",
               Printf.sprintf "interval %d: idle square, yet receiver accepted %s" interval
                 (bit_pair_to_string e1 e2) ));
      One_hop.Receiver.push_two_bit receiver_stream ~parity:e1 ~data:e2
    end;
    if Two_bit.sending sender then begin
      if not (Two_bit.finished sender) then
        raise (Violation ("sender-outcome-known", "no outcome after the frame"));
      if Two_bit.succeeded sender then One_hop.Sender.advance sender_stream
    end;
    check_prefix ()
  done;
  let received = One_hop.Receiver.received receiver_stream in
  if spent <= budget && received < len then
    raise
      (Violation
         ( "stream-delivery",
           Printf.sprintf
             "after %d intervals the receiver holds %d/%d bits although the adversary spent only \
              %d <= %d broadcasts (energy bound of Theorem 2)"
             intervals received len spent budget ))

let check_one_hop ?(impl = reference) ?(msg_len = 2) ~budget () =
  if msg_len < 1 then invalid_arg "Model_check.check_one_hop: msg_len < 1";
  if budget < 0 then invalid_arg "Model_check.check_one_hop: budget < 0";
  let intervals = msg_len + budget in
  let schedules = jam_schedules ~intervals ~budget in
  let configurations = ref 0 in
  let failure = ref None in
  for m = 0 to (1 lsl msg_len) - 1 do
    let message = List.init msg_len (fun i -> m land (1 lsl i) <> 0) in
    List.iter
      (fun jam ->
        if !failure = None then begin
          incr configurations;
          let trace = ref [] in
          try run_stream impl ~message ~jam ~budget trace
          with Violation (invariant, detail) ->
            let spent = Array.fold_left (fun acc j -> acc + popcount j) 0 jam in
            failure :=
              Some
                {
                  invariant;
                  detail;
                  setup =
                    Printf.sprintf "1Hop stream: message=%s, %d intervals"
                      (message_to_string message) intervals;
                  budget;
                  spent;
                  trace = List.rev !trace;
                }
        end)
      schedules
  done;
  match !failure with
  | Some c -> Fail c
  | None -> Pass { configurations = !configurations }

(* --- reporting -------------------------------------------------------- *)

let phase_name = [| "R1 data1"; "R2 ack1"; "R3 data2"; "R4 ack2"; "R5 veto"; "R6 relay" |]

let pp_counterexample fmt c =
  let mark b = if b then "*" else "." in
  Format.fprintf fmt "counterexample: %s@\n" c.invariant;
  Format.fprintf fmt "  %s@\n" c.setup;
  Format.fprintf fmt "  adversary budget %d, spent %d@\n" c.budget c.spent;
  Format.fprintf fmt "  int phase     | tx: S %s A | heard: S %s@\n"
    (String.concat " "
       (List.init
          (match c.trace with [] -> 0 | e :: _ -> Array.length e.receiver_tx)
          (fun i -> Printf.sprintf "R%d" i)))
    (String.concat " "
       (List.init
          (match c.trace with [] -> 0 | e :: _ -> Array.length e.receiver_tx)
          (fun i -> Printf.sprintf "R%d" i)));
  List.iter
    (fun e ->
      Format.fprintf fmt "  %3d %-9s |     %s %s %s |        %s %s@\n" e.interval
        phase_name.(e.phase) (mark e.sender_tx)
        (String.concat "  " (Array.to_list (Array.map mark e.receiver_tx)))
        (mark e.adversary_tx) (mark e.heard.(0))
        (String.concat "  "
           (List.init (Array.length e.heard - 1) (fun i -> mark e.heard.(i + 1))))
    )
    c.trace;
  Format.fprintf fmt "  violation: %s" c.detail

let counterexample_to_string c = Format.asprintf "%a" pp_counterexample c
