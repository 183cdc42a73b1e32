(* The paper's single-detection objective: the closures of [single]. *)

let value ~n pfs = Array.fold_left (fun acc p -> acc +. Float.exp (-.n *. p)) 0.0 pfs

let value_along ~n ~p0 ~p1 y =
  let acc = ref 0.0 in
  for f = 0 to Array.length p0 - 1 do
    let p = p0.(f) +. (y *. (p1.(f) -. p0.(f))) in
    acc := !acc +. Float.exp (-.n *. p)
  done;
  !acc

(* Below this argument [exp] returns +0: the exact value is at most 0.42
   of 2^-1075, half the smallest subnormal, so any [exp] with an error
   under 0.79 ulp rounds it to +0. *)
let exp_zero_below = -746.0

(* The derivative sums skip a term, without calling [exp], only where
   adding it leaves both sums' bits unchanged; every other term is added
   in the same order with the same roundings, so the result is bit for
   bit the plain loop's.  With [e = exp a], the terms are [c1 * e]
   (subtracted from [d1]) and [c2 * e] (added to [d2]).

   - [a < exp_zero_below]: [e = +0], so a term is [+-0] whenever its
     factor is finite, and [c2] finite implies [c1] finite.  A sum that
     starts at +0 never becomes -0 (an exact cancellation gives +0), and
     adding [+-0] to anything but -0 changes no bit.
   - [a < -60]: [e <= 2^-86] (e^-60 is 8.8e-27, 2^-86 is 1.3e-26), and
     rounding is monotone, so [|c * e| <= |c| * 2^-86].  Where that is
     below [2^-54 |d|] — i.e. [|c| * 2^-32 < |d|] — the term is under
     half an ulp of [d] on either side, even at a power of two, so
     [d +- term] rounds back to [d].

   Scaling by 2^-32 cannot overflow, and every comparison is false on a
   NaN, so a NaN takes the [exp] path; an infinite [c] or [d] either
   fails the test or leaves [d] unchanged anyway.  The length check lets
   the loop read without bounds checks. *)
let derivatives_along ~n ~p0 ~p1 y =
  if Array.length p1 < Array.length p0 then
    invalid_arg "Objective.derivatives_along: p1 shorter than p0";
  let d1 = ref 0.0 and d2 = ref 0.0 in
  for f = 0 to Array.length p0 - 1 do
    let q0 = Array.unsafe_get p0 f in
    let b = Array.unsafe_get p1 f -. q0 in
    let p = q0 +. (y *. b) in
    let a = -.n *. p in
    let c1 = n *. b in
    let c2 = c1 *. n *. b in
    if
      (not (a < -60.0))
      || (if a < exp_zero_below then not (Float.abs c2 < Float.infinity)
          else
            not (Float.abs c1 *. 0x1p-32 < Float.abs !d1 && Float.abs c2 *. 0x1p-32 < Float.abs !d2))
    then begin
      let e = Float.exp a in
      d1 := !d1 -. (c1 *. e);
      d2 := !d2 +. (c2 *. e)
    end
  done;
  (!d1, !d2)

let confidence ~n pfs = Float.exp (-.value ~n pfs)

type t = {
  key : string;
  label : string;
  term : n:float -> p:float -> float;
  value : n:float -> float array -> float;
  value_along : n:float -> p0:float array -> p1:float array -> float -> float;
  derivatives_along :
    n:float -> p0:float array -> p1:float array -> float -> float * float;
  confidence : n:float -> float array -> float;
}

let single =
  { key = "single";
    label = "single detection, J = sum exp(-N p_f) (paper eq. 9/10)";
    term = (fun ~n ~p -> Float.exp (-.n *. p));
    value;
    value_along;
    derivatives_along;
    confidence }

(* n-detection: a fault's detections over N weighted-random patterns are
   binomial(N, p_f); in the regime NORMALIZE produces (N large, p_f small,
   N p_f moderate) the Poisson limit with mean lambda = N p_f is the
   standard and numerically stable approximation.  The per-fault term is
   the Poisson lower tail

     F_k(lambda) = P(detections < k) = exp(-lambda) sum_{j<k} lambda^j / j!

   with derivatives in lambda (the sums telescope):

     F_k'(lambda)  = -exp(-lambda) lambda^(k-1) / (k-1)!
     F_k''(lambda) =  exp(-lambda) lambda^(k-2) (lambda - (k-1)) / (k-1)!

   Chain rule along a coordinate (lambda = n p, p affine in y with slope
   b = p1 - p0, so dlambda/dy = n b):

     dJ/dy   = sum_f (n b_f)   F_k'(lambda_f)
     d2J/dy2 = sum_f (n b_f)^2 F_k''(lambda_f)

   For k = 1 this collapses to exp(-lambda) — the paper objective. *)

(* F_k(lambda) and its first two lambda-derivatives, from one shared
   [exp (-lambda)] and a running power/factorial term. *)
let poisson_tail ~k lambda =
  let e = Float.exp (-.lambda) in
  if k = 1 then (e, -.e, e)
  else begin
    (* t_j = lambda^j / j!, accumulated up to j = k-1. *)
    let t = ref 1.0 in
    let sum = ref 1.0 in
    for j = 1 to k - 1 do
      t := !t *. lambda /. Float.of_int j;
      sum := !sum +. !t
    done;
    (* After the loop, !t = lambda^(k-1)/(k-1)!. *)
    let tail = e *. !sum in
    let d1 = -.(e *. !t) in
    let d2 =
      if lambda > 0.0 then e *. !t /. lambda *. (lambda -. Float.of_int (k - 1))
      else if k = 2 then -.e (* lambda^0 (lambda - 1) -> -1 at lambda = 0 *)
      else 0.0
    in
    (tail, d1, d2)
  end

let n_detect ~k =
  if k < 1 then invalid_arg "Objective.n_detect: k must be >= 1";
  let term ~n ~p =
    let tail, _, _ = poisson_tail ~k (n *. p) in
    tail
  in
  let value ~n pfs = Array.fold_left (fun acc p -> acc +. term ~n ~p) 0.0 pfs in
  let value_along ~n ~p0 ~p1 y =
    let acc = ref 0.0 in
    for f = 0 to Array.length p0 - 1 do
      let p = p0.(f) +. (y *. (p1.(f) -. p0.(f))) in
      acc := !acc +. term ~n ~p
    done;
    !acc
  in
  let derivatives_along ~n ~p0 ~p1 y =
    let d1 = ref 0.0 and d2 = ref 0.0 in
    for f = 0 to Array.length p0 - 1 do
      let b = p1.(f) -. p0.(f) in
      let p = p0.(f) +. (y *. b) in
      let nb = n *. b in
      let _, f1, f2 = poisson_tail ~k (n *. p) in
      d1 := !d1 +. (nb *. f1);
      d2 := !d2 +. (nb *. nb *. f2)
    done;
    (!d1, !d2)
  in
  let confidence ~n pfs = Float.exp (-.value ~n pfs) in
  { key = Printf.sprintf "ndetect:%d" k;
    label = Printf.sprintf "%d-detection, J = sum P(detections < %d) (Poisson tail)" k k;
    term;
    value;
    value_along;
    derivatives_along;
    confidence }
