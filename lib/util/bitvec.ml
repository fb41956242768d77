(* Bit vectors packed 62 bits to a word.  The exposed constructors build
   canonical values (padding bits above [len] are always zero), so
   structural equality and hashing on the record coincide with bit-string
   equality — code that compared the old [bool array] representation
   polymorphically keeps working.  [set] mutates only vectors under
   construction; every exposed operation copies. *)

type t = { len : int; words : int array }

let bits_per_word = 62
let word_mask = (1 lsl bits_per_word) - 1
let words_for len = (len + bits_per_word - 1) / bits_per_word
let length t = t.len

let check_index name t i = if i < 0 || i >= t.len then invalid_arg name

let get t i =
  check_index "Bitvec.get" t i;
  (t.words.(i / bits_per_word) lsr (i mod bits_per_word)) land 1 = 1

let set t i b =
  check_index "Bitvec.set" t i;
  let w = i / bits_per_word and bit = 1 lsl (i mod bits_per_word) in
  if b then t.words.(w) <- t.words.(w) lor bit else t.words.(w) <- t.words.(w) land lnot bit

(* Mask covering the valid bits of the last word, restoring canonical
   padding after a whole-word fill. *)
let trim t =
  let r = t.len mod bits_per_word in
  if r > 0 then begin
    let last = Array.length t.words - 1 in
    t.words.(last) <- t.words.(last) land ((1 lsl r) - 1)
  end

let create n b =
  let t = { len = n; words = Array.make (words_for n) (if b then word_mask else 0) } in
  if b then trim t;
  t

let init n f =
  let t = create n false in
  for i = 0 to n - 1 do
    if f i then set t i true
  done;
  t

let of_list bits =
  let t = create (List.length bits) false in
  List.iteri (fun i b -> if b then set t i true) bits;
  t

let to_list t = List.init t.len (get t)

let of_string s =
  init (String.length s) (fun i ->
      match s.[i] with
      | '0' -> false
      | '1' -> true
      | c -> invalid_arg (Printf.sprintf "Bitvec.of_string: bad char %c" c))

let to_string t = String.init t.len (fun i -> if get t i then '1' else '0')

let of_int ~width n =
  assert (n >= 0 && width >= 0);
  init width (fun i -> (n lsr (width - 1 - i)) land 1 = 1)

let to_int t =
  assert (t.len <= 62);
  let acc = ref 0 in
  for i = 0 to t.len - 1 do
    acc := (!acc lsl 1) lor if get t i then 1 else 0
  done;
  !acc

let append a b =
  let t = create (a.len + b.len) false in
  for i = 0 to a.len - 1 do
    if get a i then set t i true
  done;
  for i = 0 to b.len - 1 do
    if get b i then set t (a.len + i) true
  done;
  t

let concat ts = List.fold_left append { len = 0; words = [||] } ts

let sub t ~pos ~len =
  if pos < 0 || len < 0 || pos + len > t.len then invalid_arg "Bitvec.sub";
  init len (fun i -> get t (pos + i))

let equal a b =
  a.len = b.len
  &&
  let k = Array.length a.words in
  let rec go i = i >= k || (a.words.(i) = b.words.(i) && go (i + 1)) in
  go 0

(* Must keep drawing one [Rng.bool] per bit in ascending index order: the
   draw sequence is part of the deterministic trace contract. *)
let random rng n =
  let bits = Rng.bits rng n in
  init n (fun i -> bits.(i))

let empty = { len = 0; words = [||] }

let fold_left f acc t =
  let acc = ref acc in
  for i = 0 to t.len - 1 do
    acc := f !acc (get t i)
  done;
  !acc

let digest ~size m =
  assert (size > 0);
  (* Fold the message into a 62-bit accumulator with a multiplicative mix,
     then take [size] bits.  Not cryptographic, but collision-scattering
     enough that a random fake message almost never matches. *)
  let mask = (1 lsl 61) - 1 in
  let acc =
    fold_left
      (fun acc b ->
        let acc = (acc * 0x5DEECE66D) + if b then 0xB504F333F9DE649 else 1 in
        acc land mask)
      (0x9E3779B9 land mask) m
  in
  let acc = acc lxor (acc lsr 31) in
  init size (fun i -> (acc lsr (i mod 61)) land 1 = 1)

(* [w land (-w)] isolates the lowest set bit as 2^k with k < 62; the powers
   2^0 .. 2^65 are pairwise distinct mod 67 (2 is a primitive root), so
   this table maps the residue back to k. *)
let ctz_table =
  let t = Array.make 67 0 in
  for k = 0 to bits_per_word - 1 do
    t.((1 lsl k) mod 67) <- k
  done;
  t

let lowest_bit w = ctz_table.((w land (-w)) mod 67)
