(* The reference channel resolution: what one receiver observes given the
   list of transmissions that reach it.  The engine resolves every
   receiver from flat per-receiver aggregates (Channel.resolve_packed);
   test_radio and test_sim hold that fast path to this list-based rule. *)

open Channel

(* One transmission as seen by a given receiver ([power] is normalised so
   that 1.0 is the decode threshold). *)
type 'a tx = { power : float; payload : 'a }

(* The loss coin: drawn exactly once per decodable candidate, in
   transmission order, whatever the calling path — the same draw sequence
   the engine's fan-out makes. *)
let draw_loss rng params =
  match rng with
  | Some r when params.loss_prob > 0.0 -> Rng.bernoulli r params.loss_prob
  | Some _ | None ->
    if params.loss_prob > 0.0 then
      invalid_arg "Channel_oracle.resolve: loss_prob > 0 requires an rng";
    false

(* Single pass over the transmission list, accumulating the same aggregates
   the engine's flat fan-out keeps per receiver: sensed count and power sum,
   decodable count, and the earliest strongest decodable signal. *)
let rec resolve_scan rng params sense_threshold txs n_sensed total n_dec best_pow best =
  match txs with
  | tx :: rest ->
    if tx.power < sense_threshold then
      resolve_scan rng params sense_threshold rest n_sensed total n_dec best_pow best
    else begin
      let total = total +. tx.power in
      let n_sensed = n_sensed + 1 in
      if tx.power >= 1.0 && not (draw_loss rng params) then
        if tx.power > best_pow then
          resolve_scan rng params sense_threshold rest n_sensed total (n_dec + 1) tx.power
            (Some tx.payload)
        else resolve_scan rng params sense_threshold rest n_sensed total (n_dec + 1) best_pow best
      else resolve_scan rng params sense_threshold rest n_sensed total n_dec best_pow best
    end
  | [] ->
    if n_sensed = 0 then Silence
    else begin
      match best with
      | None -> Busy
      | Some payload ->
        if n_sensed = 1 then Clear payload
        else begin
          let interference = total -. best_pow in
          if
            interference <= 0.0
            || (params.capture_ratio < infinity
               && best_pow >= params.capture_ratio *. interference)
          then Clear payload
          else Busy
        end
    end

(* [rng] is required whenever [loss_prob > 0].  A lone transmission skips
   the aggregates but still draws the loss coin for a decodable signal,
   keeping the RNG stream identical to the general path. *)
let resolve ?rng params ~sense_threshold txs =
  match txs with
  | [] -> Silence
  | [ tx ] ->
    if tx.power < sense_threshold then Silence
    else if tx.power < 1.0 then Busy
    else if draw_loss rng params then Busy
    else Clear tx.payload
  | txs -> resolve_scan rng params sense_threshold txs 0 0.0 0 0.0 None
