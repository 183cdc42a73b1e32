module Netlist = Rt_circuit.Netlist

(* The COP sweep's signal-probability pass over every node, with no
   observability pass. *)
let independence_with cones c x =
  if Array.length x <> Array.length (Netlist.inputs c) then
    invalid_arg "Signal_prob.independence: weight vector width mismatch";
  let n = Netlist.size c in
  fst (Cop_eval.sweep cones ~sp_mask:(Array.make n true) ~obs_mask:(Array.make n false) x)

let independence c x = independence_with (Cop_eval.cones c) c x

let conditioning_set ?(max_vars = 8) c =
  if max_vars < 0 || max_vars > 16 then invalid_arg "Signal_prob.conditioning_set";
  Netlist.inputs c |> Array.to_list
  |> List.filter (fun i -> Array.length (Netlist.fanout c i) >= 2)
  |> List.sort (fun a b ->
         compare (Array.length (Netlist.fanout c b)) (Array.length (Netlist.fanout c a)))
  |> List.filteri (fun k _ -> k < max_vars)
  |> Array.of_list

(* Shannon expansion over a set of inputs: average the independence sweep
   over all assignments, weighted by the assignment probability. *)
let conditioned ?max_vars c x =
  let set = conditioning_set ?max_vars c in
  if Array.length set = 0 then independence c x
  else begin
    let k = Array.length set in
    let positions = Array.map (fun i -> Netlist.input_index c i) set in
    let acc = Array.make (Netlist.size c) 0.0 in
    let x' = Array.copy x in
    let cones = Cop_eval.cones c in
    for a = 0 to (1 lsl k) - 1 do
      let weight = ref 1.0 in
      Array.iteri
        (fun j pos ->
          if (a lsr j) land 1 = 1 then begin
            x'.(pos) <- 1.0;
            weight := !weight *. x.(pos)
          end
          else begin
            x'.(pos) <- 0.0;
            weight := !weight *. (1.0 -. x.(pos))
          end)
        positions;
      if !weight > 0.0 then begin
        let p = independence_with cones c x' in
        Array.iteri (fun n v -> acc.(n) <- acc.(n) +. (!weight *. v)) p
      end
    done;
    acc
  end

let exact ?node_limit c x = Rt_bdd.Bdd_circuit.signal_probs ?node_limit c x

let max_error c x =
  match exact c x with
  | None -> None
  | Some ex ->
    let est = independence c x in
    let worst = ref 0.0 in
    Array.iteri
      (fun i e ->
        let d = Float.abs (e -. est.(i)) in
        if d > !worst then worst := d)
      ex;
    Some !worst
