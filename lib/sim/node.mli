(** Network devices.

    A node is an id plus a position; each node knows its own location (the
    localisation-service assumption of Section 1).  Behaviour — honest
    protocol, crash, jamming, lying — is attached separately when a
    simulation is assembled, so the same deployment can be reused across
    adversary models. *)

type id = int

type t = { id : id; pos : Point.t }

val make : id -> Point.t -> t
