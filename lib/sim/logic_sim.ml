module Netlist = Rt_circuit.Netlist
module Gate = Rt_circuit.Gate

type t = {
  c : Netlist.t;
  vals : int64 array;
}

let create c = { c; vals = Array.make (Netlist.size c) 0L }

let circuit t = t.c

let run t batch =
  let c = t.c in
  if batch.Pattern.n_inputs <> Array.length (Netlist.inputs c) then
    invalid_arg "Logic_sim.run: batch width mismatch";
  let vals = t.vals in
  let n = Netlist.size c in
  for i = 0 to n - 1 do
    match Netlist.kind c i with
    | Gate.Input -> vals.(i) <- batch.Pattern.bits.(Netlist.input_index c i)
    | Gate.Const0 -> vals.(i) <- 0L
    | Gate.Const1 -> vals.(i) <- -1L
    | Gate.Buf -> vals.(i) <- vals.((Netlist.fanin c i).(0))
    | Gate.Not -> vals.(i) <- Int64.lognot vals.((Netlist.fanin c i).(0))
    | Gate.And ->
      let fi = Netlist.fanin c i in
      let acc = ref vals.(fi.(0)) in
      for k = 1 to Array.length fi - 1 do acc := Int64.logand !acc vals.(fi.(k)) done;
      vals.(i) <- !acc
    | Gate.Nand ->
      let fi = Netlist.fanin c i in
      let acc = ref vals.(fi.(0)) in
      for k = 1 to Array.length fi - 1 do acc := Int64.logand !acc vals.(fi.(k)) done;
      vals.(i) <- Int64.lognot !acc
    | Gate.Or ->
      let fi = Netlist.fanin c i in
      let acc = ref vals.(fi.(0)) in
      for k = 1 to Array.length fi - 1 do acc := Int64.logor !acc vals.(fi.(k)) done;
      vals.(i) <- !acc
    | Gate.Nor ->
      let fi = Netlist.fanin c i in
      let acc = ref vals.(fi.(0)) in
      for k = 1 to Array.length fi - 1 do acc := Int64.logor !acc vals.(fi.(k)) done;
      vals.(i) <- Int64.lognot !acc
    | Gate.Xor ->
      let fi = Netlist.fanin c i in
      let acc = ref vals.(fi.(0)) in
      for k = 1 to Array.length fi - 1 do acc := Int64.logxor !acc vals.(fi.(k)) done;
      vals.(i) <- !acc
    | Gate.Xnor ->
      let fi = Netlist.fanin c i in
      let acc = ref vals.(fi.(0)) in
      for k = 1 to Array.length fi - 1 do acc := Int64.logxor !acc vals.(fi.(k)) done;
      vals.(i) <- Int64.lognot !acc
  done

let value t n = t.vals.(n)
let values t = t.vals
let output_word t k = t.vals.((Netlist.outputs t.c).(k))
