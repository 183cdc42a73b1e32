(* The four xoshiro256** state words s0..s3 live unboxed in one 32-byte
   buffer.  As [mutable int64] record fields each would be a pointer to a
   boxed int64, so every [bits64] would allocate four fresh boxes; with
   [Bytes.get_int64_ne]/[set_int64_ne] on an annotated [t] the step is a
   handful of loads and stores.  [biased_word] loads the words into
   locals once per call, so its 30 steps allocate nothing and touch no
   memory. *)
type t = Bytes.t

let[@inline] get (t : t) i = Bytes.get_int64_ne t (8 * i)
let[@inline] set (t : t) i v = Bytes.set_int64_ne t (8 * i) v

(* splitmix64: used only to expand the user seed into state words, the
   recommended seeding procedure for xoshiro. *)
let splitmix_next state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create seed =
  let state = ref (Int64.of_int seed) in
  let t = Bytes.create 32 in
  for i = 0 to 3 do
    set t i (splitmix_next state)
  done;
  t

let copy (t : t) = Bytes.copy t

let[@inline] rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let[@inline] bits64 (t : t) =
  let open Int64 in
  let s0 = get t 0 and s1 = get t 1 and s2 = get t 2 and s3 = get t 3 in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let tmp = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  let s1 = logxor s1 s2 in
  let s0 = logxor s0 s3 in
  let s2 = logxor s2 tmp in
  let s3 = rotl s3 45 in
  set t 0 s0;
  set t 1 s1;
  set t 2 s2;
  set t 3 s3;
  result

let split t =
  let seed = Int64.to_int (bits64 t) in
  create (seed lxor 0x5851F42D)

let float t =
  (* 53 high bits scaled to [0,1). *)
  let x = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float x *. (1.0 /. 9007199254740992.0)

let bool t = Int64.compare (Int64.logand (bits64 t) 1L) 0L <> 0

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  if n land (n - 1) = 0 then Int64.to_int (Int64.logand (bits64 t) (Int64.of_int (n - 1)))
  else begin
    (* Rejection sampling on 62 bits to avoid modulo bias. *)
    let mask = 0x3FFFFFFFFFFFFFFF in
    let bound = mask - (mask mod n) in
    let rec draw () =
      let x = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
      if x >= bound then draw () else x mod n
    in
    draw ()
  end

(* Bit-sliced biased word.  Round p to 30 bits, p ~ 0.b1 b2 ... b30 (b1
   the most significant; clamped to [2^-30, 1 - 2^-30]), and fold fair
   words w from the least significant bit b30 up to b1, starting from
   acc = 0:
     acc := if b then acc OR w else acc AND w.
   By induction each bit of acc is 1 with probability exactly
   0.b_i ... b30 after processing b_i: OR with a fair bit maps q to
   (1 + q)/2 and AND maps q to q/2, which is prepending the bit 1 or 0.
   After b1 every bit is Bernoulli(0.b1 ... b30), at a cost of 30 fair
   words per 64 biased bits. *)
let biased_word (t : t) p =
  if p <= 0.0 then 0L
  else if p >= 1.0 then -1L
  else if p = 0.5 then bits64 t
  else begin
    let bits = 30 in
    let scaled = Float.to_int (Float.round (p *. Float.of_int (1 lsl bits))) in
    let scaled = if scaled <= 0 then 1 else if scaled >= 1 lsl bits then (1 lsl bits) - 1 else scaled in
    (* [bits64]'s step, on the state held in locals; the golden-stream
       test pins the two to the same sequence. *)
    let open Int64 in
    let s0 = ref (get t 0) and s1 = ref (get t 1) and s2 = ref (get t 2) and s3 = ref (get t 3) in
    let acc = ref 0L in
    for i = 0 to bits - 1 do
      let w = mul (rotl (mul !s1 5L) 7) 9L in
      let tmp = shift_left !s1 17 in
      s2 := logxor !s2 !s0;
      s3 := logxor !s3 !s1;
      s1 := logxor !s1 !s2;
      s0 := logxor !s0 !s3;
      s2 := logxor !s2 tmp;
      s3 := rotl !s3 45;
      if (scaled lsr i) land 1 = 1 then acc := logor !acc w else acc := logand !acc w
    done;
    set t 0 !s0;
    set t 1 !s1;
    set t 2 !s2;
    set t 3 !s3;
    !acc
  end

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
