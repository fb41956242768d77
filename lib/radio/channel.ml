type 'a observation = Silence | Clear of 'a | Busy
type params = { capture_ratio : float; loss_prob : float }

let ideal = { capture_ratio = infinity; loss_prob = 0.0 }
let realistic = { capture_ratio = 3.0; loss_prob = 0.01 }

module Packed = struct
  let silence = 0
  let busy = 1
  let clear slot = 2 lor (slot lsl 2)
  let slot p = p lsr 2
  let is_clear p = p land 3 = 2
  let is_activity p = p <> 0
end

(* Packed resolution over the engine's per-receiver flat aggregates: write
   one encoded observation per touched receiver into [out] (untouched
   entries stay [Packed.silence]).  [best_slot.(i)] indexes the round's
   merged transmissions.  The zero-interference test tolerates float
   noise, since the engine's fan-out accumulates the sums one link at a
   time; test/channel_oracle.ml holds the list-based reference rule. *)
let resolve_packed params ~touched ~n_touched ~sum_power ~n_decodable ~best_power ~best_slot
    ~out =
  for k = 0 to n_touched - 1 do
    let i = touched.(k) in
    out.(i) <-
      (if n_decodable.(i) = 0 then Packed.busy
       else begin
         let interference = sum_power.(i) -. best_power.(i) in
         if
           interference <= 1e-12
           || (params.capture_ratio < infinity
              && best_power.(i) >= params.capture_ratio *. interference)
         then Packed.clear best_slot.(i)
         else Packed.busy
       end)
  done

let is_activity = function Silence -> false | Clear _ | Busy -> true

let equal eq a b =
  match (a, b) with
  | Silence, Silence | Busy, Busy -> true
  | Clear x, Clear y -> eq x y
  | (Silence | Clear _ | Busy), _ -> false

let pp pp_payload fmt = function
  | Silence -> Format.pp_print_string fmt "silence"
  | Busy -> Format.pp_print_string fmt "busy"
  | Clear x -> Format.fprintf fmt "clear(%a)" pp_payload x
