module Oracle = Rt_testability.Oracle

let required_for oracle ~confidence x =
  let pf = Oracle.probs oracle x in
  let norm = Normalize.run ~confidence pf in
  norm.Normalize.n

let equiprobable oracle ~confidence =
  let n = Array.length (Rt_circuit.Netlist.inputs (Oracle.circuit oracle)) in
  required_for oracle ~confidence (Array.make n 0.5)

let default_grid = List.init 19 (fun i -> 0.05 *. Float.of_int (i + 1))

let lieberherr ?(grid = default_grid) oracle ~confidence =
  let n = Array.length (Rt_circuit.Netlist.inputs (Oracle.circuit oracle)) in
  List.fold_left
    (fun (best_p, best_n) p ->
      let req = required_for oracle ~confidence (Array.make n p) in
      if req < best_n then (p, req) else (best_p, best_n))
    (0.5, Float.infinity) grid

let entropy p =
  if p <= 0.0 || p >= 1.0 then 0.0
  else -.((p *. Float.log p) +. ((1.0 -. p) *. Float.log (1.0 -. p)))

let output_entropy c x =
  let sp = Rt_testability.Signal_prob.independence c x in
  Array.fold_left (fun acc o -> acc +. entropy sp.(o)) 0.0 (Rt_circuit.Netlist.outputs c)

let max_output_entropy ?(iterations = 3) ?(grid = default_grid) c =
  let n = Array.length (Rt_circuit.Netlist.inputs c) in
  let x = Array.make n 0.5 in
  for _ = 1 to iterations do
    for i = 0 to n - 1 do
      let best_v = ref x.(i) and best_h = ref Float.neg_infinity in
      List.iter
        (fun v ->
          x.(i) <- v;
          let h = output_entropy c x in
          if h > !best_h then begin
            best_h := h;
            best_v := v
          end)
        grid;
      x.(i) <- !best_v
    done
  done;
  x
