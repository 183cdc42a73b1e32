module Netlist = Rt_circuit.Netlist
module Gate = Rt_circuit.Gate

let[@inline] pin_sensitization c ~node_probs g k =
  let fi = Netlist.fanin c g in
  match Netlist.kind c g with
  | Gate.Input | Gate.Const0 | Gate.Const1 ->
    invalid_arg "Observability.pin_sensitization: not a gate"
  | Gate.Buf | Gate.Not -> 1.0
  | Gate.Xor | Gate.Xnor -> 1.0
  | Gate.And | Gate.Nand ->
    let p = ref 1.0 in
    for j = 0 to Array.length fi - 1 do
      if j <> k then p := !p *. node_probs.(fi.(j))
    done;
    !p
  | Gate.Or | Gate.Nor ->
    let p = ref 1.0 in
    for j = 0 to Array.length fi - 1 do
      if j <> k then p := !p *. (1.0 -. node_probs.(fi.(j)))
    done;
    !p

let pin_observability c ~node_probs ~obs g k =
  pin_sensitization c ~node_probs g k *. obs.(g)

(* The branch observabilities fold readers last to first, and within a
   reader its pins last to first.  The order is part of the result:
   1 - prod (1 - o_b) is not associative in floating point, and this is
   the order the pinned digests and recorded tables were produced with. *)
let set_cop_node c ~node_probs ~obs g =
  let base = if Netlist.is_output c g then 1.0 else 0.0 in
  let acc = ref (1.0 -. base) in
  let readers = Netlist.fanout c g in
  for r = Array.length readers - 1 downto 0 do
    let reader = readers.(r) in
    let fi = Netlist.fanin c reader in
    for k = Array.length fi - 1 downto 0 do
      if fi.(k) = g then begin
        let o = pin_sensitization c ~node_probs reader k *. obs.(reader) in
        acc := !acc *. (1.0 -. o)
      end
    done
  done;
  obs.(g) <- 1.0 -. !acc

let cop_subset c ~mask ~node_probs =
  let n = Netlist.size c in
  if Array.length mask <> n then invalid_arg "Observability.cop_subset: mask size";
  let obs = Array.make n 0.0 in
  for g = n - 1 downto 0 do
    if mask.(g) then set_cop_node c ~node_probs ~obs g
  done;
  obs
