module Netlist = Rt_circuit.Netlist
module Gate = Rt_circuit.Gate

type injection =
  | Stem of Netlist.node * bool
  | Pin of Netlist.node * int * bool

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

let build_into m ~order ?inject c =
  let n = Netlist.size c in
  let bdds = Array.make n (Bdd.zero m) in
  for i = 0 to n - 1 do
    let node_bdd =
      match Netlist.kind c i with
      | Gate.Input -> Bdd.var m order.(Netlist.input_index c i)
      | k ->
        let fanin = Netlist.fanin c i in
        let args = Array.map (fun j -> bdds.(j)) fanin in
        let args =
          match inject with
          | Some (Pin (g, pin, v)) when g = i ->
            let args = Array.copy args in
            args.(pin) <- (if v then Bdd.one m else Bdd.zero m);
            args
          | Some (Pin _ | Stem _) | None -> args
        in
        Bdd.apply_kind m k args
    in
    let node_bdd =
      match inject with
      | Some (Stem (g, v)) when g = i -> if v then Bdd.one m else Bdd.zero m
      | Some (Stem _ | Pin _) | None -> node_bdd
    in
    bdds.(i) <- node_bdd
  done;
  bdds

let build ?(node_limit = 500_000) ?order ?inject c =
  let order = match order with Some o -> o | None -> dfs_order c in
  let m = Bdd.manager ~node_limit ~nvars:(Array.length (Netlist.inputs c)) () in
  match build_into m ~order ?inject c with
  | bdds -> Some (m, bdds, order)
  | exception Bdd.Limit_exceeded -> None

let signal_probs ?node_limit c x =
  match build ?node_limit c with
  | None -> None
  | Some (m, bdds, order) ->
    let x_of_var = Array.make (Array.length order) 0.5 in
    Array.iteri (fun i v -> x_of_var.(v) <- x.(i)) order;
    Some (Bdd.prob_many m bdds (fun v -> x_of_var.(v)))

let detection_function ?(node_limit = 500_000) c inject =
  let order = dfs_order c in
  let m = Bdd.manager ~node_limit ~nvars:(Array.length (Netlist.inputs c)) () in
  match
    let good = build_into m ~order c in
    let bad = build_into m ~order ~inject c in
    let outs = Netlist.outputs c in
    Array.fold_left
      (fun acc o -> Bdd.or_ m acc (Bdd.xor_ m good.(o) bad.(o)))
      (Bdd.zero m) outs
  with
  | detect -> Some (m, detect, order)
  | exception Bdd.Limit_exceeded -> None

let detection_prob ?node_limit c inject x =
  match detection_function ?node_limit c inject with
  | None -> None
  | Some (m, detect, order) ->
    let x_of_var = Array.make (Array.length order) 0.5 in
    Array.iteri (fun i v -> x_of_var.(v) <- x.(i)) order;
    Some (Bdd.prob m detect (fun v -> x_of_var.(v)))
