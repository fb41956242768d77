type part = Idle | Sender | Receiver | Blocker

(* One record per node, re-armed in place, so no interval allocates. *)
type t = {
  mutable part : part;
  mutable b1 : bool;
  mutable b2 : bool;
      (* the sender's armed pair; a receiver's or blocker's R1/R3 activity *)
  mutable ack1 : bool;
  mutable ack2 : bool;  (* the sender's R2/R4 activity *)
  mutable veto : bool;
      (* a sender vetoed in R5 or sensed a relayed veto in R6; a receiver
         sensed a veto in R5 *)
  mutable finished : bool;
}

let create () =
  { part = Idle; b1 = false; b2 = false; ack1 = false; ack2 = false; veto = false; finished = false }

let arm t part ~b1 ~b2 =
  t.part <- part;
  t.b1 <- b1;
  t.b2 <- b2;
  t.ack1 <- false;
  t.ack2 <- false;
  t.veto <- false;
  t.finished <- false

let send t ~b1 ~b2 = arm t Sender ~b1 ~b2
let receive t = arm t Receiver ~b1:false ~b2:false
let block t = arm t Blocker ~b1:false ~b2:false
let idle t = arm t Idle ~b1:false ~b2:false

(* Phase-major: one jump on the phase, then the part. *)
let act t ~phase =
  match phase with
  | 0 -> t.part = Sender && t.b1
  | 1 -> t.part = Receiver && t.b1
  | 2 -> t.part = Sender && t.b2
  | 3 -> t.part = Receiver && t.b2
  | 4 -> begin
    match t.part with
    | Sender ->
      t.veto <- t.ack1 <> t.b1 || t.ack2 <> t.b2;
      t.veto
    | Blocker -> t.b1 || t.b2
    | Receiver | Idle -> false
  end
  | 5 -> begin
    match t.part with
    | Receiver -> t.veto
    | Blocker -> t.b1 || t.b2
    | Sender | Idle -> false
  end
  | _ -> invalid_arg "Two_bit.act: bad phase"

let observe t ~phase ~activity =
  match phase with
  | 0 -> if t.part = Receiver || t.part = Blocker then t.b1 <- activity
  | 1 -> if t.part = Sender then t.ack1 <- activity
  | 2 -> if t.part = Receiver || t.part = Blocker then t.b2 <- activity
  | 3 -> if t.part = Sender then t.ack2 <- activity
  | 4 ->
    if t.part = Receiver then begin
      t.veto <- activity;
      t.finished <- true
    end
  | 5 ->
    if t.part = Sender then begin
      t.veto <- t.veto || activity;
      t.finished <- true
    end
  | _ -> invalid_arg "Two_bit.observe: bad phase"

let sending t = t.part = Sender
let finished t = t.finished
let succeeded t = t.finished && not t.veto
let bit1 t = t.b1
let bit2 t = t.b2

let engaged t =
  match t.part with
  | Sender -> true
  | Receiver -> t.b1 || t.b2 || t.veto
  | Blocker -> t.b1 || t.b2
  | Idle -> false
