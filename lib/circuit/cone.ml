(* A node read on exactly one gate pin that is not an output joins its
   reader's region.  Readers have larger ids, so in one descending sweep
   every reader's root is final before its fanins take it over. *)
let ffr_roots c =
  let n = Netlist.size c in
  let root = Array.init n Fun.id in
  for i = n - 1 downto 0 do
    let fo = Netlist.fanout c i in
    if Array.length fo = 1 && not (Netlist.is_output c i) then root.(i) <- root.(fo.(0))
  done;
  root
