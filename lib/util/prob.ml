let clamp ?(lo = 0.0) ?(hi = 1.0) x = if x < lo then lo else if x > hi then hi else x

let interior eps x = clamp ~lo:eps ~hi:(1.0 -. eps) x

let quantize ~grid x =
  if grid <= 0.0 || grid >= 0.5 then invalid_arg "Prob.quantize: grid must be in ]0,0.5[";
  let q = Float.round (x /. grid) *. grid in
  clamp ~lo:grid ~hi:(1.0 -. grid) q

let quantize_dyadic ~bits x =
  if bits < 1 || bits > 30 then invalid_arg "Prob.quantize_dyadic";
  let denom = Float.of_int (1 lsl bits) in
  let k = Float.round (x *. denom) in
  let k = clamp ~lo:1.0 ~hi:(denom -. 1.0) k in
  k /. denom

let complement_product ps =
  (* 1 - prod(1-p) = -expm1(sum log1p(-p)) *)
  let s = Array.fold_left (fun acc p -> acc +. Float.log1p (-.clamp p)) 0.0 ps in
  -.Float.expm1 s

let log1mexp x =
  (* Stable log(1 - e^x) for x < 0 (Maechler 2012). *)
  if x >= 0.0 then invalid_arg "Prob.log1mexp: argument must be negative";
  if x > -.Float.log 2.0 then Float.log (-.Float.expm1 x) else Float.log1p (-.Float.exp x)

(* [n * log (1-p)], the log of one fault's escape probability;
   [-infinity] when [p = 1]. *)
let escape_exponent ~n p =
  let p = clamp p in
  if p >= 1.0 then Float.neg_infinity else n *. Float.log1p (-.p)

let detection_confidence ~n pfs =
  let log_conf = ref 0.0 in
  Array.iter
    (fun p ->
      let esc = escape_exponent ~n p in
      (* log (1 - (1-p)^n) = log1mexp esc, with esc <= 0. *)
      if esc >= 0.0 then log_conf := Float.neg_infinity
      else log_conf := !log_conf +. log1mexp esc)
    pfs;
  Float.exp !log_conf

let pp ppf x =
  if x = 0.0 || (x >= 0.001 && x <= 0.999) || x = 1.0 then Format.fprintf ppf "%.4f" x
  else Format.fprintf ppf "%.3e" x
