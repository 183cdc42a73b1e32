(* Whole-circuit BDD builds for the test suites: every node's BDD in one
   manager, and the exact signal probabilities read from them (the
   Parker-McCluskey computation).  The exact ANALYSIS engine builds its
   own managers through [Bdd_circuit.build_into]; these are the plain
   references the tests check it and the estimators against. *)

module Bdd = Rt_bdd.Bdd
module Bdd_circuit = Rt_bdd.Bdd_circuit
module Netlist = Rt_circuit.Netlist

(* BDD for every node plus the variable order used (input position ->
   variable); [None] if the node limit was hit. *)
let build ?(node_limit = 500_000) ?order c =
  let order = match order with Some o -> o | None -> Bdd_circuit.dfs_order c in
  let m = Bdd.manager ~node_limit ~nvars:(Array.length (Netlist.inputs c)) () in
  match Bdd_circuit.build_into m ~order c with
  | bdds -> Some (m, bdds, order)
  | exception Bdd.Limit_exceeded -> None

(* Exact signal probability of every node when input [i] is true with
   probability [x.(i)].  BDD variables are order ranks, so map each
   variable back through the order. *)
let signal_probs ?node_limit c x =
  match build ?node_limit c with
  | None -> None
  | Some (m, bdds, order) ->
    let x_of_var = Array.make (Array.length order) 0.5 in
    Array.iteri (fun i v -> x_of_var.(v) <- x.(i)) order;
    Some (Bdd.prob_many m bdds (fun v -> x_of_var.(v)))
