(** On-air payloads.

    The bit-by-bit protocols of the paper never inspect payload contents:
    every decision is made from carrier sensing alone (silence vs activity),
    because a Byzantine device can forge any content but cannot forge
    silence.  [Blip] stands for any such energy burst — a data mark, an
    acknowledgement, a veto, or jamming noise.  [Packet] carries a whole
    message in one transmission and is used only by the unauthenticated
    epidemic baseline, which does trust contents. *)

type t =
  | Blip
  | Packet of Bitvec.t
