(* Order statistics and the regression rule of the layer benchmark.

   Quartiles follow Python's [statistics.quantiles(xs, n=4)] (its default
   "exclusive" method), so spreads printed here are the ones an external
   script recomputing them from the per-run JSON gets. *)

let sorted xs = List.sort Float.compare xs

let median xs =
  match sorted xs with
  | [] -> invalid_arg "Perf_stats.median: no samples"
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let quartiles xs =
  match sorted xs with
  | [] -> invalid_arg "Perf_stats.quartiles: no samples"
  | [ x ] -> (x, x, x)
  | s ->
    let a = Array.of_list s in
    let len = Array.length a in
    let m = len + 1 in
    let q i =
      let j = max 1 (min (len - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)

(* Interquartile distance as a share of the median. *)
let spread xs =
  let q1, q2, q3 = quartiles xs in
  if Float.equal q2 0.0 then 0.0 else (q3 -. q1) /. Float.abs q2

(* The highest whole percentile [p] with at least ten samples strictly
   beyond it, and the nearest-rank sample there; [None] below 11 samples,
   where no tail percentile is supported. *)
let tail xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n < 11 then None
  else
    let p = 100 * (n - 10) / n in
    let rank = ((p * n) + 99) / 100 in
    Some (p, a.(max 0 (rank - 1)))

type better = Lower | Higher

let better_of_string = function
  | "lower" -> Some Lower
  | "higher" -> Some Higher
  | _ -> None

(* A metric regressed when it moved the wrong way by more than [bound]
   (a share of the base) and by more than the absolute [floor]. *)
let regressed ~better ~bound ~floor ~base ~current =
  let worse = match better with Lower -> current -. base | Higher -> base -. current in
  worse > bound *. Float.abs base && worse > floor
