type ctx = Schedule.t

let make_ctx ~topology ~source = Announcer.schedule topology ~source
let schedule ctx = ctx
let cycle ctx = Schedule.cycle ctx
let cycle_rounds ctx = Announcer.cycle_rounds ctx

type role = Source of Bitvec.t | Relay | Liar of Bitvec.t

let machine ctx id role =
  let a = Announcer.create ctx id (match role with Source m | Liar m -> Some m | Relay -> None) in
  let observe _round obs =
    match obs with
    | Channel.Clear (Msg.Packet message) -> Announcer.hold a message
    | Channel.Clear Msg.Blip | Channel.Silence | Channel.Busy -> ()
  in
  let observe_packed _round code slots =
    if Channel.Packed.is_clear code then begin
      match slots.Engine.payloads.(Channel.Packed.slot code) with
      | Msg.Packet message -> Announcer.hold a message
      | Msg.Blip -> ()
    end
  in
  {
    Engine.act = Announcer.act a;
    observe;
    observe_packed = Some observe_packed;
    delivered = (fun () -> Announcer.value a);
    next_active = Announcer.next_active a;
  }
