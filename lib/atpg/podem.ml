module Netlist = Rt_circuit.Netlist
module Gate = Rt_circuit.Gate
module Fault = Rt_fault.Fault
module T = Tristate

type verdict =
  | Test of bool array
  | Redundant
  | Aborted

type stats = {
  backtracks : int;
  decisions : int;
}

type space = {
  c : Netlist.t;
  fault : Fault.t;
  pi : T.t array;  (* decision values per input position *)
  g : T.t array;  (* good value per node *)
  f : T.t array;  (* faulty value per node *)
  origin : Netlist.node;  (* where the difference originates *)
}

let make_space c fault =
  let n = Netlist.size c in
  { c;
    fault;
    pi = Array.make (Array.length (Netlist.inputs c)) T.X;
    g = Array.make n T.X;
    f = Array.make n T.X;
    origin = (match fault.Fault.site with Fault.Stem s -> s | Fault.Branch (gt, _) -> gt) }

(* Full five-valued implication: one forward sweep. *)
let imply s =
  let c = s.c in
  for i = 0 to Netlist.size c - 1 do
    (match Netlist.kind c i with
     | Gate.Input ->
       let v = s.pi.(Netlist.input_index c i) in
       s.g.(i) <- v;
       s.f.(i) <- v
     | k ->
       let fanin = Netlist.fanin c i in
       let gargs = Array.map (fun j -> s.g.(j)) fanin in
       s.g.(i) <- T.eval k gargs;
       let fargs = Array.map (fun j -> s.f.(j)) fanin in
       (match s.fault.Fault.site with
        | Fault.Branch (gt, k') when gt = i -> fargs.(k') <- T.of_bool s.fault.Fault.stuck
        | Fault.Branch _ | Fault.Stem _ -> ());
       s.f.(i) <- T.eval k fargs);
    (match s.fault.Fault.site with
     | Fault.Stem st when st = i -> s.f.(i) <- T.of_bool s.fault.Fault.stuck
     | Fault.Stem _ | Fault.Branch _ -> ())
  done

let diff_known s n = T.is_known s.g.(n) && T.is_known s.f.(n) && not (T.equal s.g.(n) s.f.(n))
let settled_equal s n = T.is_known s.g.(n) && T.is_known s.f.(n) && T.equal s.g.(n) s.f.(n)

let detected s = Array.exists (fun o -> diff_known s o) (Netlist.outputs s.c)

(* The line whose good value must be the complement of the stuck value. *)
let activation_node s = Fault.source s.fault s.c

let activation_failed s =
  let src = activation_node s in
  T.is_known s.g.(src) && T.equal s.g.(src) (T.of_bool s.fault.Fault.stuck)

(* Can a difference still reach an output?  Forward sweep: a node carries a
   possible difference if it is the origin, or reads one, and is not
   already settled equal. *)
let x_path_exists s =
  let c = s.c in
  let n = Netlist.size c in
  let carries = Array.make n false in
  for i = 0 to n - 1 do
    if not (settled_equal s i) then
      if i = s.origin then carries.(i) <- true
      else if Array.exists (fun j -> carries.(j)) (Netlist.fanin c i) then carries.(i) <- true
  done;
  Array.exists (fun o -> carries.(o)) (Netlist.outputs c)

(* Objective: first activate the fault, then extend the D-frontier. *)
let objective s =
  let src = activation_node s in
  if not (T.is_known s.g.(src)) then Some (src, not s.fault.Fault.stuck)
  else begin
    (* D-frontier: a gate with undetermined output reading a difference.
       For a branch fault the faulted gate itself carries a virtual
       difference on the overridden pin (its fanin values never differ), so
       it joins the frontier as soon as the fault is activated — which it
       is here, because the activation check above passed with the source
       value known. *)
    let c = s.c in
    let virtual_frontier i =
      match s.fault.Fault.site with Fault.Branch (gt, _) -> gt = i | Fault.Stem _ -> false
    in
    let side_input gate =
      Array.to_list (Netlist.fanin c gate)
      |> List.find_opt (fun j -> not (T.is_known s.g.(j)))
    in
    let rec find i =
      if i >= Netlist.size c then None
      else if
        (not (T.is_known s.g.(i) && T.is_known s.f.(i)))
        && (virtual_frontier i || Array.exists (fun j -> diff_known s j) (Netlist.fanin c i))
      then begin
        (* Drive an undetermined side input to the non-controlling value;
           a frontier gate with no such input cannot be extended here —
           look further. *)
        match side_input i with
        | Some j ->
          let want =
            match Gate.controlling_value (Netlist.kind c i) with
            | Some cv -> not cv
            | None -> true
          in
          Some (j, want)
        | None -> find (i + 1)
      end
      else find (i + 1)
    in
    find 0
  end

(* Map an objective to a primary-input assignment through X-valued lines. *)
let backtrace s (node, want) =
  let c = s.c in
  let rec walk node want =
    match Netlist.kind c node with
    | Gate.Input -> Some (Netlist.input_index c node, want)
    | k ->
      let want = if Gate.inverting k then not want else want in
      (match
         Array.to_list (Netlist.fanin c node)
         |> List.find_opt (fun j -> not (T.is_known s.g.(j)))
       with
       | None -> None
       | Some j -> walk j want)
  in
  walk node want

let search ?(backtrack_limit = 10_000) c fault =
  let s = make_space c fault in
  let stack : (int * bool * bool) Stack.t = Stack.create () in
  let backtracks = ref 0 and decisions = ref 0 in
  let result = ref None in
  let backtrack () =
    (* Flip the deepest unflipped decision; exhausting the stack proves
       redundancy. *)
    let rec unwind () =
      if Stack.is_empty stack then result := Some `Redundant
      else begin
        let pi, v, flipped = Stack.pop stack in
        if flipped then begin
          s.pi.(pi) <- T.X;
          unwind ()
        end
        else begin
          incr backtracks;
          if !backtracks > backtrack_limit then result := Some `Aborted
          else begin
            s.pi.(pi) <- T.of_bool (not v);
            Stack.push (pi, not v, true) stack
          end
        end
      end
    in
    unwind ()
  in
  while !result = None do
    imply s;
    if detected s then result := Some `Test
    else if activation_failed s || not (x_path_exists s) then backtrack ()
    else begin
      match objective s with
      | None -> backtrack ()
      | Some obj ->
        (match backtrace s obj with
         | None -> backtrack ()
         | Some (pi, v) ->
           incr decisions;
           s.pi.(pi) <- T.of_bool v;
           Stack.push (pi, v, false) stack)
    end
  done;
  let stats = { backtracks = !backtracks; decisions = !decisions } in
  match !result with
  | Some `Test -> (`Test (Array.copy s.pi), stats)
  | Some `Redundant -> (`Redundant, stats)
  | Some `Aborted -> (`Aborted, stats)
  | None -> assert false

let generate ?backtrack_limit c fault =
  match search ?backtrack_limit c fault with
  | `Test cube, stats ->
    (Test (Array.map (fun v -> match v with T.T -> true | T.F | T.X -> false) cube), stats)
  | `Redundant, stats -> (Redundant, stats)
  | `Aborted, stats -> (Aborted, stats)
