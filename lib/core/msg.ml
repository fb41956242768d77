type t = Blip | Packet of Bitvec.t
