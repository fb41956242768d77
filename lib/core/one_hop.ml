let parity_of_index i = i mod 2 = 0

(* Both ends store stream bits as '0'/'1' bytes: cheap append and random
   access without a functional-queue rebuild per interval.  Storage starts
   empty and is allocated at the first push, so an endpoint that never
   carries a bit costs only its record; it then doubles when full, through
   sizes 8k - 1 that fill whole words.  Bytes past the stream's length are
   filler and never read. *)
let append bytes len bit =
  let bytes =
    if len < Bytes.length bytes then bytes
    else begin
      let grown = Bytes.create (max 7 ((2 * len) + 1)) in
      Bytes.blit bytes 0 grown 0 len;
      grown
    end
  in
  Bytes.set bytes len (if bit then '1' else '0');
  bytes

module Sender = struct
  type t = { mutable queue : Bytes.t; mutable total : int; mutable pointer : int }

  let create () = { queue = Bytes.empty; total = 0; pointer = 0 }

  let push t bit =
    t.queue <- append t.queue t.total bit;
    t.total <- t.total + 1

  let total t = t.total
  let has_current t = t.pointer < t.total

  let current_parity t =
    assert (has_current t);
    parity_of_index t.pointer

  let current_data t =
    assert (has_current t);
    Bytes.get t.queue t.pointer = '1'

  (* The own-slot rule, beside the stream it reads. *)
  let arm t tb =
    if has_current t then Two_bit.send tb ~b1:(current_parity t) ~b2:(current_data t)
    else Two_bit.block tb

  let advance t = if has_current t then t.pointer <- t.pointer + 1
  let skip_to t n = if n > t.pointer then t.pointer <- min n t.total
  let sent t = t.pointer
end

module Receiver = struct
  type t = { mutable stream : Bytes.t; mutable received : int }

  let create () = { stream = Bytes.empty; received = 0 }
  let received t = t.received

  let push_two_bit t ~parity ~data =
    if parity = parity_of_index t.received then begin
      t.stream <- append t.stream t.received data;
      t.received <- t.received + 1
    end

  (* The one bounds check is against [received], not the capacity, so the
     filler past the stream is unreachable. *)
  let get t i =
    if i < 0 || i >= t.received then invalid_arg "One_hop.Receiver.get: index out of range";
    Bytes.unsafe_get t.stream i = '1'

  let bits t = Bitvec.init t.received (get t)

  let prefix t n =
    assert (t.received >= n);
    Bitvec.init n (get t)
end
