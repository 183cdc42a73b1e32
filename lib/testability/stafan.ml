module Netlist = Rt_circuit.Netlist
module Gate = Rt_circuit.Gate
module Fault = Rt_fault.Fault
module Pattern = Rt_sim.Pattern

type counts = {
  n_patterns : int;
  ones : int array;
  sens : int array array;
}

let popcount_64 w =
  let open Int64 in
  let x = sub w (logand (shift_right_logical w 1) 0x5555555555555555L) in
  let x = add (logand x 0x3333333333333333L) (logand (shift_right_logical x 2) 0x3333333333333333L) in
  let x = logand (add x (shift_right_logical x 4)) 0x0F0F0F0F0F0F0F0FL in
  to_int (shift_right_logical (mul x 0x0101010101010101L) 56)

(* Word of lanes where gate [g]'s output is sensitive to pin [k]. *)
let sens_word c vals g k =
  let fi = Netlist.fanin c g in
  match Netlist.kind c g with
  | Gate.Input | Gate.Const0 | Gate.Const1 -> 0L
  | Gate.Buf | Gate.Not | Gate.Xor | Gate.Xnor -> -1L
  | Gate.And | Gate.Nand ->
    let acc = ref (-1L) in
    Array.iteri (fun j f -> if j <> k then acc := Int64.logand !acc vals.(f)) fi;
    !acc
  | Gate.Or | Gate.Nor ->
    let acc = ref (-1L) in
    Array.iteri (fun j f -> if j <> k then acc := Int64.logand !acc (Int64.lognot vals.(f))) fi;
    !acc

let count c ~source ~n_patterns =
  let n = Netlist.size c in
  let ones = Array.make n 0 in
  let sens =
    Array.init n (fun g ->
        match Netlist.kind c g with
        | Gate.Input | Gate.Const0 | Gate.Const1 -> [||]
        | _ -> Array.make (Array.length (Netlist.fanin c g)) 0)
  in
  let sim = Rt_sim.Logic_sim.create c in
  let remaining = ref n_patterns in
  while !remaining > 0 do
    let batch = source () in
    let batch =
      if batch.Pattern.n_patterns <= !remaining then batch
      else { batch with Pattern.n_patterns = !remaining }
    in
    let lanes = Pattern.lane_mask batch in
    Rt_sim.Logic_sim.run sim batch;
    let vals = Rt_sim.Logic_sim.values sim in
    for g = 0 to n - 1 do
      ones.(g) <- ones.(g) + popcount_64 (Int64.logand vals.(g) lanes);
      let s = sens.(g) in
      for k = 0 to Array.length s - 1 do
        s.(k) <- s.(k) + popcount_64 (Int64.logand (sens_word c vals g k) lanes)
      done
    done;
    remaining := !remaining - batch.Pattern.n_patterns
  done;
  { n_patterns; ones; sens }

let controllability counts n = Float.of_int counts.ones.(n) /. Float.of_int counts.n_patterns

(* The fold order of COP's observability kernel ([Cop_eval]'s edge
   order: distinct readers last to first, pins last to first), with the
   measured sensitization in place of the COP product.  A reader listed
   in adjacent fanout slots, once per pin that reads g, is visited once. *)
let set_observability_node c counts ~total ~obs g =
  let base = if Netlist.is_output c g then 1.0 else 0.0 in
  let acc = ref (1.0 -. base) in
  let readers = Netlist.fanout c g in
  for r = Array.length readers - 1 downto 0 do
    let reader = readers.(r) in
    if r = Array.length readers - 1 || readers.(r + 1) <> reader then begin
      let fi = Netlist.fanin c reader in
      for k = Array.length fi - 1 downto 0 do
        if fi.(k) = g then begin
          let sens_p = Float.of_int counts.sens.(reader).(k) /. total in
          let o = sens_p *. obs.(reader) in
          acc := !acc *. (1.0 -. o)
        end
      done
    end
  done;
  obs.(g) <- 1.0 -. !acc

let observability_subset c ~mask counts =
  let n = Netlist.size c in
  if Array.length mask <> n then invalid_arg "Stafan.observability_subset: mask size";
  let total = Float.of_int counts.n_patterns in
  let obs = Array.make n 0.0 in
  for g = n - 1 downto 0 do
    if mask.(g) then set_observability_node c counts ~total ~obs g
  done;
  obs

let fault_prob c counts ~total ~obs f =
  let src = Fault.source f c in
  let c1 = controllability counts src in
  let act = if f.Fault.stuck then 1.0 -. c1 else c1 in
  match f.Fault.site with
  | Fault.Stem n -> act *. obs.(n)
  | Fault.Branch (g, k) ->
    let sens_p = Float.of_int counts.sens.(g).(k) /. total in
    act *. sens_p *. obs.(g)

let detection_probs_subset c ~mask counts faults =
  let obs = observability_subset c ~mask counts in
  let total = Float.of_int counts.n_patterns in
  Array.map (fault_prob c counts ~total ~obs) faults
