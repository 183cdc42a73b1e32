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

(* Wide (W x 64 lane) variant.  Node values live in one flat unboxed
   Bigarray, node-major — node [i]'s W words are contiguous, so the
   per-gate word loop below and the fault-propagation inner loops both
   walk sequential memory.  The per-word evaluation is the exact narrow
   evaluation replayed W times, so lane semantics are unchanged. *)

module BA1 = Bigarray.Array1

type wide = {
  wc : Netlist.t;
  ww : int;
  wvals : Pattern.words;
}

let create_wide ?words c =
  let ww = Pattern.resolve_block_words words in
  let wvals =
    BA1.create Bigarray.int64 Bigarray.c_layout (max 1 (Netlist.size c * ww))
  in
  BA1.fill wvals 0L;
  { wc = c; ww; wvals }

let run_wide t blk =
  let c = t.wc in
  if blk.Pattern.width <> Array.length (Netlist.inputs c) then
    invalid_arg "Logic_sim.run_wide: block width mismatch";
  if blk.Pattern.words <> t.ww then
    invalid_arg "Logic_sim.run_wide: block word count mismatch";
  let v = t.wvals in
  let w = t.ww in
  let n = Netlist.size c in
  for i = 0 to n - 1 do
    let row = i * w in
    match Netlist.kind c i with
    | Gate.Input ->
      let src = Netlist.input_index c i in
      for k = 0 to w - 1 do
        BA1.unsafe_set v (row + k) (Pattern.block_word blk src k)
      done
    | Gate.Const0 -> for k = 0 to w - 1 do BA1.unsafe_set v (row + k) 0L done
    | Gate.Const1 -> for k = 0 to w - 1 do BA1.unsafe_set v (row + k) (-1L) done
    | Gate.Buf ->
      let s = (Netlist.fanin c i).(0) * w in
      for k = 0 to w - 1 do BA1.unsafe_set v (row + k) (BA1.unsafe_get v (s + k)) done
    | Gate.Not ->
      let s = (Netlist.fanin c i).(0) * w in
      for k = 0 to w - 1 do BA1.unsafe_set v (row + k) (Int64.lognot (BA1.unsafe_get v (s + k))) done
    | Gate.And ->
      let fi = Netlist.fanin c i in
      for k = 0 to w - 1 do
        let acc = ref (BA1.unsafe_get v ((fi.(0) * w) + k)) in
        for j = 1 to Array.length fi - 1 do
          acc := Int64.logand !acc (BA1.unsafe_get v ((fi.(j) * w) + k))
        done;
        BA1.unsafe_set v (row + k) !acc
      done
    | Gate.Nand ->
      let fi = Netlist.fanin c i in
      for k = 0 to w - 1 do
        let acc = ref (BA1.unsafe_get v ((fi.(0) * w) + k)) in
        for j = 1 to Array.length fi - 1 do
          acc := Int64.logand !acc (BA1.unsafe_get v ((fi.(j) * w) + k))
        done;
        BA1.unsafe_set v (row + k) (Int64.lognot !acc)
      done
    | Gate.Or ->
      let fi = Netlist.fanin c i in
      for k = 0 to w - 1 do
        let acc = ref (BA1.unsafe_get v ((fi.(0) * w) + k)) in
        for j = 1 to Array.length fi - 1 do
          acc := Int64.logor !acc (BA1.unsafe_get v ((fi.(j) * w) + k))
        done;
        BA1.unsafe_set v (row + k) !acc
      done
    | Gate.Nor ->
      let fi = Netlist.fanin c i in
      for k = 0 to w - 1 do
        let acc = ref (BA1.unsafe_get v ((fi.(0) * w) + k)) in
        for j = 1 to Array.length fi - 1 do
          acc := Int64.logor !acc (BA1.unsafe_get v ((fi.(j) * w) + k))
        done;
        BA1.unsafe_set v (row + k) (Int64.lognot !acc)
      done
    | Gate.Xor ->
      let fi = Netlist.fanin c i in
      for k = 0 to w - 1 do
        let acc = ref (BA1.unsafe_get v ((fi.(0) * w) + k)) in
        for j = 1 to Array.length fi - 1 do
          acc := Int64.logxor !acc (BA1.unsafe_get v ((fi.(j) * w) + k))
        done;
        BA1.unsafe_set v (row + k) !acc
      done
    | Gate.Xnor ->
      let fi = Netlist.fanin c i in
      for k = 0 to w - 1 do
        let acc = ref (BA1.unsafe_get v ((fi.(0) * w) + k)) in
        for j = 1 to Array.length fi - 1 do
          acc := Int64.logxor !acc (BA1.unsafe_get v ((fi.(j) * w) + k))
        done;
        BA1.unsafe_set v (row + k) (Int64.lognot !acc)
      done
  done

let wide_values t = t.wvals
let wide_value t n k = BA1.get t.wvals ((n * t.ww) + k)
