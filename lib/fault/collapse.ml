module Netlist = Rt_circuit.Netlist
module Gate = Rt_circuit.Gate

(* Union-find with path compression. *)
let find parent i =
  let rec go i = if parent.(i) = i then i else go parent.(i) in
  let root = go i in
  let rec compress i =
    if parent.(i) <> root then begin
      let next = parent.(i) in
      parent.(i) <- root;
      compress next
    end
  in
  compress i;
  root

let union parent a b =
  let ra = find parent a and rb = find parent b in
  if ra <> rb then parent.(max ra rb) <- min ra rb

(* Integer fault ids.  Every node owns one line for its stem and one per
   gate pin, numbered in node order, stem before pins: node [n]'s stem is
   line [line.(n)] and pin [k] is line [line.(n) + 1 + k].  A fault's id
   is [2 * line + stuck], so ids ascend exactly as {!Fault.compare}
   orders faults (node, then stem before pin [k], then stuck-at-0 first),
   and the id doubles as the sort key. *)
let lines c =
  let n = Netlist.size c in
  let line = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    line.(i + 1) <- line.(i) + 1 + Array.length (Netlist.fanin c i)
  done;
  line

let id c line f =
  let s = if f.Fault.stuck then 1 else 0 in
  match f.Fault.site with
  | Fault.Stem n -> (2 * line.(n)) + s
  | Fault.Branch (g, k) ->
    if k < 0 || k >= Array.length (Netlist.fanin c g) then
      invalid_arg "Collapse: branch fault on a missing pin";
    (2 * (line.(g) + 1 + k)) + s

let classes c faults =
  let nf = Array.length faults in
  let line = lines c in
  let n_ids = 2 * line.(Netlist.size c) in
  let ids = Array.map (id c line) faults in
  (* [index.(id)]: the last position holding fault [id], or -1. *)
  let index = Array.make n_ids (-1) in
  Array.iteri (fun i f -> index.(f) <- i) ids;
  let parent = Array.init nf Fun.id in
  (* The fault on the connection into pin k of gate g: the branch when
     the driver fans out, else the driver's stem. *)
  let link g k in_val out_val =
    let src = (Netlist.fanin c g).(k) in
    let line_in = if Array.length (Netlist.fanout c src) > 1 then line.(g) + 1 + k else line.(src) in
    let a = index.((2 * line_in) + in_val) and b = index.((2 * line.(g)) + out_val) in
    if a >= 0 && b >= 0 then union parent a b
  in
  Netlist.iter_gates c (fun g ->
      let arity = Array.length (Netlist.fanin c g) in
      match Netlist.kind c g with
      | Gate.Input | Gate.Const0 | Gate.Const1 -> ()
      | Gate.And -> for k = 0 to arity - 1 do link g k 0 0 done
      | Gate.Nand -> for k = 0 to arity - 1 do link g k 0 1 done
      | Gate.Or -> for k = 0 to arity - 1 do link g k 1 1 done
      | Gate.Nor -> for k = 0 to arity - 1 do link g k 1 0 done
      | Gate.Buf ->
        link g 0 0 0;
        link g 0 1 1
      | Gate.Not ->
        link g 0 0 1;
        link g 0 1 0
      | Gate.Xor | Gate.Xnor -> ());
  (* Positions in id order (ties by position): a counting sort. *)
  let start = Array.make (n_ids + 1) 0 in
  Array.iter (fun f -> start.(f + 1) <- start.(f + 1) + 1) ids;
  for f = 1 to n_ids do
    start.(f) <- start.(f) + start.(f - 1)
  done;
  let sorted = Array.make nf 0 in
  Array.iteri
    (fun i f ->
      sorted.(start.(f)) <- i;
      start.(f) <- start.(f) + 1)
    ids;
  (* Number the classes as their least members appear, then fill them
     in that order: members sorted, classes ordered by representative. *)
  let cls = Array.make nf (-1) and size = Array.make nf 0 in
  let n_cls = ref 0 in
  Array.iter
    (fun i ->
      let r = find parent i in
      if cls.(r) < 0 then begin
        cls.(r) <- !n_cls;
        incr n_cls
      end;
      size.(cls.(r)) <- size.(cls.(r)) + 1)
    sorted;
  let out = Array.init !n_cls (fun k -> Array.make size.(k) faults.(0)) in
  let fill = Array.make !n_cls 0 in
  Array.iter
    (fun i ->
      let k = cls.(find parent i) in
      out.(k).(fill.(k)) <- faults.(i);
      fill.(k) <- fill.(k) + 1)
    sorted;
  out

let representatives c faults = Array.map (fun cl -> cl.(0)) (classes c faults)

let collapsed_universe c = representatives c (Fault.universe c)

let collapsed_universe_back ~remap ~original ~optimized =
  Array.map
    (fun f -> (f, Fault.map_back ~remap ~original ~optimized f))
    (collapsed_universe optimized)

let ratio c =
  let u = Fault.universe c in
  if Array.length u = 0 then 1.0
  else Float.of_int (Array.length (representatives c u)) /. Float.of_int (Array.length u)
