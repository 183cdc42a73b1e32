(* A random netlist for the test suites.  [Generators.random_circuit]
   never wires one node into two pins of the same gate; this netlist
   does, and uses every gate kind, so code that walks a node's readers
   pin by pin (the observability fold, the relevel tie on fanout) meets
   a reader listed more than once.  [kinds] weights the gate mix (a kind
   listed twice is drawn twice as often). *)

module Gate = Rt_circuit.Gate
module Netlist = Rt_circuit.Netlist

let all_kinds = Gate.[| And; Nand; Or; Nor; Xor; Xnor; Buf; Not; Const0; Const1 |]

let circuit ?(kinds = all_kinds) rng ~inputs ~gates =
  let n = inputs + gates in
  let kind = Array.make n Gate.Input in
  let fanins = Array.make n [||] in
  for g = inputs to n - 1 do
    let k = kinds.(Rt_util.Rng.int rng (Array.length kinds)) in
    let arity =
      match k with
      | Gate.Const0 | Gate.Const1 -> 0
      | Gate.Buf | Gate.Not -> 1
      | _ -> 1 + Rt_util.Rng.int rng 4
    in
    kind.(g) <- k;
    fanins.(g) <- Array.init arity (fun _ -> g - 1 - Rt_util.Rng.int rng (min g 6))
  done;
  let outputs =
    List.filter (fun g -> g >= n - 3 || Rt_util.Rng.int rng 5 = 0) (List.init gates (( + ) inputs))
  in
  Netlist.make ~kinds:kind ~fanins ~names:(Array.init n (Printf.sprintf "n%d")) ~output_list:outputs
