let confidence ~n pfs = Rt_util.Prob.detection_confidence ~n pfs

let required ?(confidence = 0.95) pfs =
  if confidence <= 0.0 || confidence >= 1.0 then invalid_arg "Test_length.required";
  if Array.length pfs = 0 then 1.0
  else if Array.exists (fun p -> p <= 0.0) pfs then Float.infinity
  else begin
    let target = confidence in
    let conf n = Rt_util.Prob.detection_confidence ~n pfs in
    (* Exponential search then bisection on the monotone confidence.  The
       doubling stops only where [hi] overflows to infinity, so a finite N
       is found whenever one is representable. *)
    let rec grow hi = if conf hi >= target || hi = Float.infinity then hi else grow (hi *. 2.0) in
    let hi = grow 1.0 in
    if hi = Float.infinity || conf hi < target then Float.infinity
    else begin
      let rec bisect lo hi =
        if hi -. lo <= Float.max 0.5 (1e-9 *. hi) then hi
        else begin
          let mid = 0.5 *. (lo +. hi) in
          if conf mid >= target then bisect lo mid else bisect mid hi
        end
      in
      Float.round (bisect 0.0 hi +. 0.49)
    end
  end

let savir_bardell_bound ?(confidence = 0.95) pfs =
  if Array.length pfs = 0 then 1.0
  else begin
    let pmin = Array.fold_left Float.min 1.0 pfs in
    if pmin <= 0.0 then Float.infinity
    else begin
      let n_eff = Float.of_int (Array.length pfs) in
      Float.log (n_eff /. (1.0 -. confidence)) /. -.Float.log1p (-.pmin)
    end
  end

let hardest pfs ~k =
  let idx = Array.init (Array.length pfs) Fun.id in
  Array.sort (fun a b -> Float.compare pfs.(a) pfs.(b)) idx;
  Array.sub idx 0 (min k (Array.length idx))
