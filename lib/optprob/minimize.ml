type result = {
  y : float;
  iterations : int;
}

let newton ?(objective = Objective.single) ?(lo = 0.01) ?(hi = 0.99) ?(tol = 1e-6)
    ?(max_iter = 60) ~n ~p0 ~p1 y_start =
  if lo >= hi then invalid_arg "Minimize.newton: empty interval";
  if Array.length p0 <> Array.length p1 then invalid_arg "Minimize.newton: p0/p1 length mismatch";
  (* A fault with p0 = p1 does not move along this coordinate.  Its
     derivative terms are multiples of p1 - p0 = 0, so they are +0.0 or
     -0.0, and adding either to a sum that starts at +0.0 (and so can
     never become -0.0) changes nothing: the derivatives run over the
     moved faults only, in their original order, bit-identically. *)
  let p0m, p1m =
    let moved = ref 0 in
    for f = 0 to Array.length p0 - 1 do
      if p0.(f) <> p1.(f) then incr moved
    done;
    let p0m = Array.make !moved 0.0 and p1m = Array.make !moved 0.0 in
    let k = ref 0 in
    for f = 0 to Array.length p0 - 1 do
      if p0.(f) <> p1.(f) then begin
        p0m.(!k) <- p0.(f);
        p1m.(!k) <- p1.(f);
        incr k
      end
    done;
    (p0m, p1m)
  in
  let deriv y = objective.Objective.derivatives_along ~n ~p0:p0m ~p1:p1m y in
  (* Convexity: J' is non-decreasing on the contract region (globally for
     the paper objective).  Track a bracket [a, b] with J'(a) <= 0 <= J'(b)
     when one exists; fall back to the boundary when J' keeps one sign over
     the whole interval.  J'(hi) is read only once J'(lo) < 0, so a
     coordinate pegged at [lo] costs one derivative evaluation. *)
  let d_lo, _ = deriv lo in
  if d_lo >= 0.0 then { y = lo; iterations = 0 }
  else if fst (deriv hi) <= 0.0 then { y = hi; iterations = 0 }
  else begin
    let a = ref lo and b = ref hi in
    let y = ref (Rt_util.Prob.clamp ~lo ~hi y_start) in
    let iters = ref 0 in
    let finished = ref false in
    while (not !finished) && !iters < max_iter do
      incr iters;
      let d1, d2 = deriv !y in
      if d1 <= 0.0 then a := Float.max !a !y else b := Float.min !b !y;
      let step_ok = d2 > 0.0 in
      let candidate = if step_ok then !y -. (d1 /. d2) else Float.nan in
      let next =
        if step_ok && candidate > !a && candidate < !b then candidate
        else 0.5 *. (!a +. !b)
      in
      if Float.abs (next -. !y) < tol || !b -. !a < tol then finished := true;
      y := next
    done;
    { y = !y; iterations = !iters }
  end
