type id = int
type t = { id : id; pos : Point.t }

let make id pos = { id; pos }
