type t = {
  sorted_idx : int array;
  undetectable : int array;
  n : float;
  nf : int;
}

(* The SORT step: fault indices [a] stably ascending by [key], with
   stdlib's [Array.stable_sort] algorithm and its one scratch array of
   ceil(n/2) ints, but the comparison is two float loads in place of a
   closure call.  A stable order is unique, so the permutation is the one
   [Array.stable_sort (fun i j -> Float.compare key.(i) key.(j))] gives:
   the keys sorted here are > 0, never NaN, and on those
   [Float.compare x y <= 0] is [x <= y]. *)
let sort_by_key (key : float array) (a : int array) =
  let cutoff = 5 in
  (* Merge a.(i1 ..) (len1) and src2.(i2 ..) (len2) into dst from d; on
     a tie the left run's element goes first.  dst may be a or src2,
     written only below the read positions. *)
  let merge i1 len1 src2 i2 len2 dst d =
    let e1 = i1 + len1 and e2 = i2 + len2 in
    let i1 = ref i1 and i2 = ref i2 and d = ref d in
    while !i1 < e1 && !i2 < e2 do
      let s1 = a.(!i1) and s2 = src2.(!i2) in
      if key.(s1) <= key.(s2) then begin
        dst.(!d) <- s1;
        incr i1
      end
      else begin
        dst.(!d) <- s2;
        incr i2
      end;
      incr d
    done;
    if !i1 < e1 then Array.blit a !i1 dst !d (e1 - !i1)
    else Array.blit src2 !i2 dst !d (e2 - !i2)
  in
  let isortto srcofs dst dstofs len =
    for i = 0 to len - 1 do
      let e = a.(srcofs + i) in
      let ke = key.(e) in
      let j = ref (dstofs + i - 1) in
      while !j >= dstofs && key.(dst.(!j)) > ke do
        dst.(!j + 1) <- dst.(!j);
        decr j
      done;
      dst.(!j + 1) <- e
    done
  in
  (* Sort a.(srcofs ..) (len) into dst.(dstofs ..). *)
  let rec sortto srcofs dst dstofs len =
    if len <= cutoff then isortto srcofs dst dstofs len
    else begin
      let l1 = len / 2 in
      let l2 = len - l1 in
      sortto (srcofs + l1) dst (dstofs + l1) l2;
      sortto srcofs a (srcofs + l2) l1;
      merge (srcofs + l2) l1 dst (dstofs + l1) l2 dst dstofs
    end
  in
  let l = Array.length a in
  if l <= cutoff then isortto 0 a 0 l
  else begin
    let l1 = l / 2 in
    let l2 = l - l1 in
    let t = Array.make l2 0 in
    sortto l1 t 0 l2;
    sortto 0 a l2 l1;
    merge l2 l1 t 0 l2 a 0
  end

let run ?(objective = Objective.single) ?(confidence = 0.95) ?(nf_min = 8) pfs =
  if confidence <= 0.0 || confidence >= 1.0 then invalid_arg "Normalize.run: confidence";
  Rt_obs.with_span ~cat:"phase" "normalize" @@ fun () ->
  let pick keep =
    let n = Array.fold_left (fun acc p -> if keep p then acc + 1 else acc) 0 pfs in
    let out = Array.make n 0 in
    let k = ref 0 in
    Array.iteri
      (fun i p ->
        if keep p then begin
          out.(!k) <- i;
          incr k
        end)
      pfs;
    out
  in
  let undetectable = pick (fun p -> p <= 0.0) in
  (* The paper's SORT step: faults ascending by detection probability
     (stable, so ties keep index order). *)
  let sorted_idx =
    Rt_obs.with_span ~cat:"phase" "sort" @@ fun () ->
    let idx = pick (fun p -> p > 0.0) in
    sort_by_key pfs idx;
    idx
  in
  let n_det = Array.length sorted_idx in
  if n_det = 0 then { sorted_idx; undetectable; n = Float.infinity; nf = 0 }
  else begin
    let q = -.Float.log confidence in
    let p i = pfs.(sorted_idx.(i)) in
    let term = objective.Objective.term in
    (* J_M bounds from a z-prefix; z is 1-based count.  Validity rests on
       the protocol's monotonicity contract: the per-fault miss term is
       decreasing in p, so the faults beyond the sorted prefix each
       contribute at most the term of fault z.  The lower bound stops as
       soon as its partial sum passes q: the terms are >= 0 and adding a
       non-negative float never decreases a sum, so the full sum would
       exceed q too, and only l <= q is ever used as a value.  It also
       stops at the first term that could not move the sum even doubled:
       the prefix is ascending in p, so by the same contract every later
       term is no larger (the factor 2 absorbs a computed term's
       last-bit wobble), and rounding is monotone, so none of them moves
       the sum either — it already holds the full prefix sum, bit for
       bit. *)
    let l z m =
      let acc = ref 0.0 and i = ref 0 in
      while !i < z && !acc <= q do
        let t = term ~n:m ~p:(p !i) in
        if !acc +. (2.0 *. t) = !acc then i := z
        else begin
          acc := !acc +. t;
          incr i
        end
      done;
      !acc
    in
    let u z m lz =
      if z >= n_det then lz else lz +. (Float.of_int (n_det - z) *. term ~n:m ~p:(p z))
    in
    (* Decide J_M <= q using as small a prefix as possible; returns
       (meets, z_used). *)
    let decide m =
      let rec go z =
        let lz = l z m in
        if lz > q then (false, z)
        else if u z m lz <= q then (true, z)
        else if z >= n_det then (true, z)
        else go (min n_det (2 * z))
      in
      go (min n_det (max 1 nf_min))
    in
    (* Doubling stops only where [m] overflows to infinity: a finite N is
       found whenever one is representable. *)
    let rec grow m = if fst (decide m) || m = Float.infinity then m else grow (m *. 2.0) in
    let hi = grow 1.0 in
    if hi = Float.infinity || not (fst (decide hi)) then
      { sorted_idx; undetectable; n = Float.infinity; nf = min n_det nf_min }
    else begin
      let rec bisect lo hi =
        if hi -. lo <= Float.max 0.5 (1e-9 *. hi) then hi
        else begin
          let mid = 0.5 *. (lo +. hi) in
          if fst (decide mid) then bisect lo mid else bisect mid hi
        end
      in
      let n = Float.round (bisect 0.0 hi +. 0.49) in
      let _, z = decide n in
      (* Relevant faults: everything whose contribution at N is within a
         factor exp(-10) of the hardest fault's would still be noise; the
         paper keeps the z the bound search needed.  Enforce the floor. *)
      let nf = max (min n_det nf_min) z in
      { sorted_idx; undetectable; n; nf }
    end
  end

let hard_indices t = Array.sub t.sorted_idx 0 t.nf
