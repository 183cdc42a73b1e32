type t = {
  sorted_idx : int array;
  undetectable : int array;
  n : float;
  nf : int;
}

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
    Array.stable_sort (fun a b -> Float.compare pfs.(a) pfs.(b)) idx;
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
       exceed q too, and only l <= q is ever used as a value. *)
    let l z m =
      let acc = ref 0.0 and i = ref 0 in
      while !i < z && !acc <= q do
        acc := !acc +. term ~n:m ~p:(p !i);
        incr i
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
