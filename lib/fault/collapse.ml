module Netlist = Rt_circuit.Netlist
module Gate = Rt_circuit.Gate

(* Union-find with path compression. *)
let find parent i =
  let root = ref i in
  while parent.(!root) <> !root do
    root := parent.(!root)
  done;
  let j = ref i in
  while parent.(!j) <> !root do
    let next = parent.(!j) in
    parent.(!j) <- !root;
    j := next
  done;
  !root

(* The lesser root wins, so every class's root is its least id. *)
let union parent a b =
  let ra = find parent a and rb = find parent b in
  if ra < rb then parent.(rb) <- ra else if rb < ra then parent.(ra) <- rb

(* Integer fault ids.  Every node owns one line for its stem and one per
   gate pin, numbered in node order, stem before pins: node [n]'s stem is
   line [line.(n)] and pin [k] is line [line.(n) + 1 + k].  A fault's id
   is [2 * line + stuck], so ids ascend exactly as {!Fault.compare}
   orders faults (node, then stem before pin [k], then stuck-at-0 first):
   scanning ids ascending visits faults in that order. *)
let lines c =
  let n = Netlist.size c in
  let line = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    line.(i + 1) <- line.(i) + 1 + Array.length (Netlist.fanin c i)
  done;
  line

(* The fault universe marked straight from [lines]: both polarities of
   every non-constant node's stem, and of every gate pin whose driver
   fans out (the branches {!Fault.universe} lists). *)
let universe_ids c line =
  let present = Bytes.make (2 * line.(Netlist.size c)) '\000' in
  let mark l =
    Bytes.set present (2 * l) '\001';
    Bytes.set present ((2 * l) + 1) '\001'
  in
  for n = 0 to Netlist.size c - 1 do
    match Netlist.kind c n with
    | Gate.Const0 | Gate.Const1 -> ()
    | Gate.Input -> mark line.(n)
    | Gate.Buf | Gate.Not | Gate.And | Gate.Nand | Gate.Or | Gate.Nor | Gate.Xor | Gate.Xnor ->
      mark line.(n);
      Array.iteri
        (fun k src -> if Array.length (Netlist.fanout c src) > 1 then mark (line.(n) + 1 + k))
        (Netlist.fanin c n)
  done;
  present

let collapsed_universe c =
  let line = lines c in
  let present = universe_ids c line in
  let parent = Array.init (Bytes.length present) Fun.id in
  (* The fault on the connection into pin k of gate g: the branch when
     the driver fans out, else the driver's stem. *)
  let link g k in_val out_val =
    let src = (Netlist.fanin c g).(k) in
    let line_in = if Array.length (Netlist.fanout c src) > 1 then line.(g) + 1 + k else line.(src) in
    let a = (2 * line_in) + in_val and b = (2 * line.(g)) + out_val in
    if Bytes.get present a <> '\000' && Bytes.get present b <> '\000' then union parent a b
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
  (* A class's root is its least id, its {!Fault.compare}-least member,
     so scanning ids ascending emits the classes ordered by it.  Counted
     first so that the records go straight into the result array. *)
  let is_rep id = Bytes.get present id <> '\000' && parent.(id) = id in
  let count = ref 0 in
  for id = 0 to Bytes.length present - 1 do
    if is_rep id then incr count
  done;
  let reps = Array.make !count { Fault.site = Fault.Stem 0; stuck = false } in
  let k = ref 0 in
  for n = 0 to Netlist.size c - 1 do
    for l = line.(n) to line.(n + 1) - 1 do
      for id = 2 * l to (2 * l) + 1 do
        if is_rep id then begin
          let site = if l = line.(n) then Fault.Stem n else Fault.Branch (n, l - line.(n) - 1) in
          reps.(!k) <- { Fault.site; stuck = id land 1 = 1 };
          incr k
        end
      done
    done
  done;
  reps
