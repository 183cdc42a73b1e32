let mean a =
  let n = Array.length a in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 a /. Float.of_int n

let variance a =
  let n = Array.length a in
  if n < 2 then 0.0
  else begin
    let m = mean a in
    let s = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 a in
    s /. Float.of_int (n - 1)
  end

let quantile q a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.quantile: empty array";
  let s = Array.copy a in
  Array.sort Float.compare s;
  let pos = q *. Float.of_int (n - 1) in
  let i = Float.to_int pos in
  let i = if i < 0 then 0 else if i >= n - 1 then n - 1 else i in
  let frac = pos -. Float.of_int i in
  if i = n - 1 then s.(n - 1) else s.(i) +. (frac *. (s.(i + 1) -. s.(i)))

let geometric_steps ~lo ~hi ~per_decade =
  if lo < 1 || hi < lo || per_decade < 1 then invalid_arg "Stats.geometric_steps";
  let ratio = 10.0 ** (1.0 /. Float.of_int per_decade) in
  let rec collect acc x =
    let xi = Float.to_int (Float.round x) in
    if xi >= hi then List.rev (hi :: acc)
    else begin
      let acc = match acc with h :: _ when h = xi -> acc | _ -> xi :: acc in
      collect acc (x *. ratio)
    end
  in
  collect [] (Float.of_int lo)

type timer = float

let timer_start () = Unix.gettimeofday ()
let timer_elapsed t = Unix.gettimeofday () -. t
