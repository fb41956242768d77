type t =
  | Source of bool
  | Commit of { index : int; value : bool }
  | Heard of { index : int; value : bool; cause : int * int }

type codec = { msg_len : int; coord_step : float; index_bits : int; coord_bits : int; max_delta : int }

let bits_for n = max 1 (int_of_float (ceil (log (float_of_int (max 2 n)) /. log 2.0)))

let codec ~msg_len ~coord_range ~coord_step =
  assert (msg_len > 0 && coord_range > 0.0 && coord_step > 0.0);
  let max_delta = int_of_float (ceil (coord_range /. coord_step)) in
  {
    msg_len;
    coord_step;
    index_bits = bits_for msg_len;
    coord_bits = bits_for ((2 * max_delta) + 1);
    max_delta;
  }

let index_bits c = c.index_bits

let snap c (p : Point.t) =
  ( int_of_float (Float.round (p.x /. c.coord_step)),
    int_of_float (Float.round (p.y /. c.coord_step)) )

let lattice_point c (kx, ky) =
  Point.make (float_of_int kx *. c.coord_step) (float_of_int ky *. c.coord_step)

let encode_delta c d =
  let clamped = max (-c.max_delta) (min c.max_delta d) in
  clamped + c.max_delta

let decode_delta c e = e - c.max_delta

let tag = function
  | Source _ -> (false, false)
  | Commit _ -> (false, true)
  | Heard _ -> (true, false)

(* Frames are padded to EVEN length (one trailing 1-bit on odd payloads).
   The 1Hop stream can only reject a silent interval as "no exchange"
   when the expected stream position has an even index (its parity blip
   is due); at odd positions, a slot owner with a drained queue that
   simply blocks its slot is indistinguishable from a transmitted
   (parity=0, data=0) pair and injects a spurious 0-bit, misaligning
   every later frame.  Even frame lengths keep the queue total — hence
   every drain position — even, so the hazardous case never arises. *)
let padded len = len + (len land 1)

let pad_to_even v = if Bitvec.length v land 1 = 1 then Bitvec.concat [ v; Bitvec.of_list [ true ] ] else v

let encode c frame =
  let b0, b1 = tag frame in
  pad_to_even
    (match frame with
    | Source value -> Bitvec.of_list [ b0; b1; value ]
    | Commit { index; value } ->
      Bitvec.concat
        [ Bitvec.of_list [ b0; b1 ]; Bitvec.of_int ~width:c.index_bits index;
          Bitvec.of_list [ value ] ]
    | Heard { index; value; cause = dx, dy } ->
      Bitvec.concat
        [
          Bitvec.of_list [ b0; b1 ];
          Bitvec.of_int ~width:c.index_bits index;
          Bitvec.of_list [ value ];
          Bitvec.of_int ~width:c.coord_bits (encode_delta c dx);
          Bitvec.of_int ~width:c.coord_bits (encode_delta c dy);
        ])

(* Unpadded frame length for the tag bits [b0 b1], or -1 for the unused
   tag.  Ints, not options, so the stream parser allocates nothing. *)
let base_length c b0 b1 =
  match (b0, b1) with
  | false, false -> 3
  | false, true -> 3 + c.index_bits
  | true, false -> 3 + c.index_bits + (2 * c.coord_bits)
  | true, true -> -1

let length_of_tag_bits c b0 b1 =
  let base = base_length c b0 b1 in
  if base < 0 then -1 else padded base

let decode c bits =
  if Bitvec.length bits < 3 then None
  else begin
    let b0 = Bitvec.get bits 0 and b1 = Bitvec.get bits 1 in
    let base = base_length c b0 b1 and actual = Bitvec.length bits in
    if base < 0 || padded base <> actual || (base <> actual && not (Bitvec.get bits (actual - 1)))
    then None
    else if not (b0 || b1) then Some (Source (Bitvec.get bits 2))
    else begin
      let index = Bitvec.to_int (Bitvec.sub bits ~pos:2 ~len:c.index_bits) in
      if index >= c.msg_len then None
      else begin
        let value = Bitvec.get bits (2 + c.index_bits) in
        if b1 then Some (Commit { index; value })
        else begin
          let off = 3 + c.index_bits in
          let dx = Bitvec.to_int (Bitvec.sub bits ~pos:off ~len:c.coord_bits) in
          let dy = Bitvec.to_int (Bitvec.sub bits ~pos:(off + c.coord_bits) ~len:c.coord_bits) in
          Some (Heard { index; value; cause = (decode_delta c dx, decode_delta c dy) })
        end
      end
    end
  end
