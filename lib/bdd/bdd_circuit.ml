module Netlist = Rt_circuit.Netlist
module Gate = Rt_circuit.Gate

(* Depth-first traversal from the outputs; inputs get variable levels in
   first-visit order.  Unreached inputs (possible in pathological netlists)
   are appended at the end. *)
let dfs_order c =
  let n_inputs = Array.length (Netlist.inputs c) in
  let order = Array.make n_inputs (-1) in
  let next = ref 0 in
  let seen = Array.make (Netlist.size c) false in
  let rec visit n =
    if not seen.(n) then begin
      seen.(n) <- true;
      (match Netlist.kind c n with
       | Gate.Input ->
         order.(Netlist.input_index c n) <- !next;
         incr next
       | _ -> Array.iter visit (Netlist.fanin c n))
    end
  in
  Array.iter visit (Netlist.outputs c);
  Array.iteri
    (fun i v ->
      if v < 0 then begin
        order.(i) <- !next;
        incr next
      end)
    order;
  order

let build_into m ~order c =
  let n = Netlist.size c in
  let bdds = Array.make n (Bdd.zero m) in
  for i = 0 to n - 1 do
    bdds.(i) <-
      (match Netlist.kind c i with
       | Gate.Input -> Bdd.var m order.(Netlist.input_index c i)
       | k -> Bdd.apply_kind m k (Array.map (fun j -> bdds.(j)) (Netlist.fanin c i)))
  done;
  bdds
