(* The state is one int64 kept in an 8-byte [Bytes] and read and written
   with [Bytes.get_int64_le]/[set_int64_le], which ocamlopt compiles
   unboxed: a [mutable state : int64] field would box it on every draw.
   [int64] and [float] are inlined into the draws below, so [int], [bool]
   and [bernoulli] allocate nothing, even when called across a module
   boundary that the dev profile's [-opaque] keeps from inlining. *)
type t = {
  state : Bytes.t;
  mutable spare : float option; (* cached second deviate of the polar method *)
}

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state s =
  let state = Bytes.create 8 in
  Bytes.set_int64_le state 0 s;
  { state; spare = None }

let create seed = of_state (mix64 (Int64.of_int seed))

let[@inline] int64 t =
  let s = Int64.add (Bytes.get_int64_le t.state 0) golden_gamma in
  Bytes.set_int64_le t.state 0 s;
  mix64 s

let split t = of_state (int64 t)

(* Rejection sampling over the positive-int range to avoid modulo bias. *)
let rec int_below t n =
  let raw = Int64.to_int (int64 t) land max_int in
  let v = raw mod n in
  if raw - v > max_int - n + 1 then int_below t n else v

let int t n =
  assert (n > 0);
  int_below t n

let[@inline] float t x =
  (* 53 high bits give a uniform double in [0, 1). *)
  let raw = Int64.shift_right_logical (int64 t) 11 in
  Int64.to_float raw /. 9007199254740992.0 *. x

let bool t = Int64.logand (int64 t) 1L = 1L

let bernoulli t p = float t 1.0 < p

let normal t ~mean ~stddev =
  let standard =
    match t.spare with
    | Some v ->
      t.spare <- None;
      v
    | None ->
      let rec draw () =
        let u = (2.0 *. float t 1.0) -. 1.0 in
        let v = (2.0 *. float t 1.0) -. 1.0 in
        let s = (u *. u) +. (v *. v) in
        if s >= 1.0 || s = 0.0 then draw ()
        else begin
          let m = sqrt (-2.0 *. log s /. s) in
          t.spare <- Some (v *. m);
          u *. m
        end
      in
      draw ()
  in
  mean +. (stddev *. standard)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick t a =
  assert (Array.length a > 0);
  a.(int t (Array.length a))

let sample_without_replacement t k n =
  assert (0 <= k && k <= n);
  let a = Array.init n (fun i -> i) in
  shuffle t a;
  Array.to_list (Array.sub a 0 k)

let bits t k = Array.init k (fun _ -> bool t)
