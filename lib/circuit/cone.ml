let transitive_fanin c root =
  let mask = Array.make (Netlist.size c) false in
  let rec visit n =
    if not mask.(n) then begin
      mask.(n) <- true;
      Array.iter visit (Netlist.fanin c n)
    end
  in
  visit root;
  mask

let support c root =
  let mask = transitive_fanin c root in
  Netlist.inputs c |> Array.to_list |> List.filter (fun i -> mask.(i)) |> Array.of_list

let support_size c root = Array.length (support c root)

let all_support_sizes c =
  let n = Netlist.size c in
  (* Sorted-int-array union per node; memoised bottom-up. *)
  let sets : int array array = Array.make n [||] in
  let sizes = Array.make n 0 in
  let union a b =
    let la = Array.length a and lb = Array.length b in
    if la = 0 then b
    else if lb = 0 then a
    else begin
      let out = Array.make (la + lb) 0 in
      let i = ref 0 and j = ref 0 and k = ref 0 in
      while !i < la && !j < lb do
        let x = a.(!i) and y = b.(!j) in
        if x < y then begin out.(!k) <- x; incr i end
        else if y < x then begin out.(!k) <- y; incr j end
        else begin out.(!k) <- x; incr i; incr j end;
        incr k
      done;
      while !i < la do out.(!k) <- a.(!i); incr i; incr k done;
      while !j < lb do out.(!k) <- b.(!j); incr j; incr k done;
      Array.sub out 0 !k
    end
  in
  for i = 0 to n - 1 do
    (match Netlist.kind c i with
     | Gate.Input -> sets.(i) <- [| i |]
     | _ -> sets.(i) <- Array.fold_left (fun acc j -> union acc sets.(j)) [||] (Netlist.fanin c i));
    sizes.(i) <- Array.length sets.(i)
  done;
  sizes

let transitive_fanout c root =
  let n = Netlist.size c in
  let mask = Array.make n false in
  mask.(root) <- true;
  (* Ids are topological, so a single ascending sweep suffices. *)
  for i = root to n - 1 do
    if not mask.(i) then
      if Array.exists (fun j -> mask.(j)) (Netlist.fanin c i) then mask.(i) <- true
  done;
  mask

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

let reaches_output c node =
  let mask = transitive_fanout c node in
  Array.exists (fun o -> mask.(o)) (Netlist.outputs c)

let extract c roots =
  let mask = Array.make (Netlist.size c) false in
  let rec visit n =
    if not mask.(n) then begin
      mask.(n) <- true;
      Array.iter visit (Netlist.fanin c n)
    end
  in
  List.iter visit roots;
  let old_ids = ref [] in
  for i = Netlist.size c - 1 downto 0 do
    if mask.(i) then old_ids := i :: !old_ids
  done;
  let old_ids = Array.of_list !old_ids in
  let new_of_old = Array.make (Netlist.size c) (-1) in
  Array.iteri (fun new_id old_id -> new_of_old.(old_id) <- new_id) old_ids;
  let kinds = Array.map (Netlist.kind c) old_ids in
  let fanins = Array.map (fun o -> Array.map (fun j -> new_of_old.(j)) (Netlist.fanin c o)) old_ids in
  let names = Array.map (Netlist.name c) old_ids in
  let output_list = List.map (fun r -> new_of_old.(r)) roots in
  (Netlist.make ~kinds ~fanins ~names ~output_list, old_ids)
