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

let build ?(node_limit = 500_000) ?order c =
  let order = match order with Some o -> o | None -> dfs_order c in
  let m = Bdd.manager ~node_limit ~nvars:(Array.length (Netlist.inputs c)) () in
  match build_into m ~order c with
  | bdds -> Some (m, bdds, order)
  | exception Bdd.Limit_exceeded -> None

let signal_probs ?node_limit c x =
  match build ?node_limit c with
  | None -> None
  | Some (m, bdds, order) ->
    let x_of_var = Array.make (Array.length order) 0.5 in
    Array.iteri (fun i v -> x_of_var.(v) <- x.(i)) order;
    Some (Bdd.prob_many m bdds (fun v -> x_of_var.(v)))
