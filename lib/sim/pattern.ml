type batch = {
  n_inputs : int;
  n_patterns : int;
  bits : int64 array;
}

type source = unit -> batch

let lane_mask b =
  if b.n_patterns >= 64 then -1L else Int64.sub (Int64.shift_left 1L b.n_patterns) 1L

let pattern b l =
  if l < 0 || l >= b.n_patterns then invalid_arg "Pattern.pattern: lane out of range";
  Array.init b.n_inputs (fun i ->
      Int64.logand (Int64.shift_right_logical b.bits.(i) l) 1L <> 0L)

let of_vectors vectors =
  match Array.length vectors with
  | 0 -> []
  | total ->
    let n_inputs = Array.length vectors.(0) in
    Array.iter
      (fun v -> if Array.length v <> n_inputs then invalid_arg "Pattern.of_vectors: ragged input")
      vectors;
    let rec build start acc =
      if start >= total then List.rev acc
      else begin
        let n = min 64 (total - start) in
        let bits = Array.make n_inputs 0L in
        for l = 0 to n - 1 do
          let v = vectors.(start + l) in
          for i = 0 to n_inputs - 1 do
            if v.(i) then bits.(i) <- Int64.logor bits.(i) (Int64.shift_left 1L l)
          done
        done;
        build (start + n) ({ n_inputs; n_patterns = n; bits } :: acc)
      end
    in
    build 0 []

let weighted rng weights () =
  let n_inputs = Array.length weights in
  let bits = Array.map (fun w -> Rt_util.Rng.biased_word rng w) weights in
  { n_inputs; n_patterns = 64; bits }

let equiprobable rng ~n_inputs =
  let w = Array.make n_inputs 0.5 in
  weighted rng w

(* Wide blocks: W words of up to 64 patterns each, Bigarray-backed so the
   whole block is one flat unboxed buffer (input-major — input [i]'s W
   words are contiguous, matching the per-input fill and the fault
   simulator's node-major rows).  A block is *filled from* the narrow source, one
   batch per word in stream order, so the pattern sequence — and hence
   every downstream statistic — is identical to pulling the same source
   through the one-word path. *)

type words = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

type block = {
  width : int;
  words : int;
  counts : int array;
  mutable filled : int;
  mutable total : int;
  data : words;
}

let max_block_words = 16

let default_block_words () =
  match Sys.getenv_opt "OPTPROB_BLOCK_WORDS" with
  | None -> 4
  | Some s ->
    (match int_of_string_opt (String.trim s) with
     | Some w when w >= 1 -> min w max_block_words
     | Some _ | None -> 4)

let resolve_block_words = function
  | Some w when w >= 1 -> min w max_block_words
  | Some _ -> 1
  | None -> default_block_words ()

let word_mask n =
  if n >= 64 then -1L else Int64.sub (Int64.shift_left 1L n) 1L

let make_block ~n_inputs ~words =
  if words < 1 || words > max_block_words then
    invalid_arg "Pattern.make_block: words out of range";
  if n_inputs < 0 then invalid_arg "Pattern.make_block: negative n_inputs";
  let data =
    Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout (max 1 (n_inputs * words))
  in
  Bigarray.Array1.fill data 0L;
  { width = n_inputs; words; counts = Array.make words 0; filled = 0; total = 0; data }

let fill_block src blk ~needed =
  if needed <= 0 then invalid_arg "Pattern.fill_block: needed <= 0";
  Array.fill blk.counts 0 blk.words 0;
  blk.filled <- 0;
  blk.total <- 0;
  let remaining = ref needed in
  let w = ref 0 in
  while !w < blk.words && !remaining > 0 do
    let b = src () in
    if b.n_inputs <> blk.width then invalid_arg "Pattern.fill_block: input width mismatch";
    (* Same per-batch truncation rule as the narrow consumers: the source
       batch is taken whole unless fewer patterns are still needed.  Lanes
       past [counts.(w)] carry whatever the source produced; consumers
       mask with [word_mask]. *)
    let count = min b.n_patterns !remaining in
    blk.counts.(!w) <- count;
    for i = 0 to blk.width - 1 do
      Bigarray.Array1.set blk.data ((i * blk.words) + !w) b.bits.(i)
    done;
    blk.total <- blk.total + count;
    remaining := !remaining - count;
    incr w
  done;
  blk.filled <- !w

let block_word blk i w = Bigarray.Array1.get blk.data ((i * blk.words) + w)

let take src n =
  let rec go remaining acc =
    if remaining <= 0 then List.rev acc
    else begin
      let b = src () in
      let b =
        if b.n_patterns <= remaining then b
        else begin
          let keep = remaining in
          let mask = Int64.sub (Int64.shift_left 1L keep) 1L in
          { b with n_patterns = keep; bits = Array.map (fun w -> Int64.logand w mask) b.bits }
        end
      in
      go (remaining - b.n_patterns) (b :: acc)
    end
  in
  go n []
