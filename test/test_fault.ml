(* Tests for Rt_fault: the stuck-at universe and equivalence collapsing.
   The central property: every fault in a collapse class has exactly the
   same set of detecting patterns (checked exhaustively on small
   circuits). *)

module Fault = Rt_fault.Fault
module Collapse = Rt_fault.Collapse
module Netlist = Rt_circuit.Netlist
module Generators = Rt_circuit.Generators
module Builder = Rt_circuit.Builder

let check = Alcotest.check

let bits_of_int w v = Array.init w (fun i -> (v lsr i) land 1 = 1)

let test_universe_counts () =
  (* Single AND gate, fanout-free: 2 faults per node (2 inputs + gate +
     output alias), no branch faults. *)
  let b = Builder.create () in
  let x = Builder.input b "x" in
  let y = Builder.input b "y" in
  Builder.output b ~name:"z" (Builder.and2 b x y);
  let c = Builder.finalize b in
  let u = Fault.universe c in
  check Alcotest.int "stem faults only" (2 * Netlist.size c) (Array.length u)

let test_universe_has_branch_faults () =
  (* x fans out to two gates: branch faults must appear. *)
  let b = Builder.create () in
  let x = Builder.input b "x" in
  let y = Builder.input b "y" in
  Builder.output b ~name:"a" (Builder.and2 b x y);
  Builder.output b ~name:"o" (Builder.or2 b x y);
  let c = Builder.finalize b in
  let u = Fault.universe c in
  let branches =
    Array.to_list u |> List.filter (fun f -> match f.Fault.site with Fault.Branch _ -> true | Fault.Stem _ -> false)
  in
  (* x and y each feed 2 gates -> 4 branch sites x 2 polarities. *)
  check Alcotest.int "branch fault count" 8 (List.length branches)

let test_input_faults () =
  let c = Generators.s1_comparator () in
  let inf = Fault.input_faults c in
  check Alcotest.int "two per input" (2 * 48) (Array.length inf);
  (* All input stuck-at faults must be inside the universe (the paper's
     requirement on the fault model F). *)
  let u = Fault.universe c in
  Array.iter
    (fun f ->
      if not (Array.exists (fun g -> Fault.equal f g) u) then
        Alcotest.fail "input fault missing from universe")
    inf

let test_collapse_shrinks () =
  List.iter
    (fun (name, gen) ->
      let c = gen () in
      let u = Fault.universe c in
      let r = Collapse.representatives c u in
      if Array.length r >= Array.length u then Alcotest.failf "%s: no shrink" name;
      if Float.of_int (Array.length r) /. Float.of_int (Array.length u) < 0.2 then
        Alcotest.failf "%s: collapse suspiciously aggressive" name)
    [ ("s1", Generators.s1_comparator); ("c432ish", Generators.c432ish) ]

let detection_set c f =
  let n = Array.length (Netlist.inputs c) in
  let set = ref [] in
  for v = 0 to (1 lsl n) - 1 do
    if Rt_sim.Fault_sim.detects c f (bits_of_int n v) then set := v :: !set
  done;
  !set

let collapse_equivalence_qcheck =
  QCheck.Test.make ~name:"collapse classes are true equivalences" ~count:20
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c = Generators.random_circuit ~inputs:6 ~gates:20 ~seed in
      let classes = Collapse.classes c (Fault.universe c) in
      Array.for_all
        (fun cls ->
          match Array.to_list cls with
          | [] -> false
          | first :: rest ->
            let ref_set = detection_set c first in
            List.for_all (fun f -> detection_set c f = ref_set) rest)
        classes)

let collapse_covers_universe_qcheck =
  QCheck.Test.make ~name:"collapse classes partition the universe" ~count:30
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c = Generators.random_circuit ~inputs:6 ~gates:20 ~seed in
      let u = Fault.universe c in
      let classes = Collapse.classes c u in
      let total = Array.fold_left (fun acc cls -> acc + Array.length cls) 0 classes in
      total = Array.length u)

(* The Hashtbl implementation [Collapse.classes] replaced, kept as the
   reference: faults keyed by value, a union-find over positions, and
   classes sorted through the tuple order [Fault.compare] had. *)
module Reference = struct
  let compare a b =
    let key f =
      match f.Fault.site with
      | Fault.Stem n -> (n, -1, if f.Fault.stuck then 1 else 0)
      | Fault.Branch (g, k) -> (g, k, if f.Fault.stuck then 1 else 0)
    in
    Stdlib.compare (key a) (key b)

  let rec find parent i = if parent.(i) = i then i else find parent parent.(i)

  let classes c faults =
    let n = Array.length faults in
    let index = Hashtbl.create (2 * n) in
    Array.iteri (fun i f -> Hashtbl.replace index f i) faults;
    let parent = Array.init n Fun.id in
    let connection_fault g k stuck =
      let src = (Netlist.fanin c g).(k) in
      if Array.length (Netlist.fanout c src) > 1 then { Fault.site = Fault.Branch (g, k); stuck }
      else { Fault.site = Fault.Stem src; stuck }
    in
    let link g k in_val out_val =
      match
        ( Hashtbl.find_opt index (connection_fault g k in_val),
          Hashtbl.find_opt index { Fault.site = Fault.Stem g; stuck = out_val } )
      with
      | Some a, Some b ->
        let ra = find parent a and rb = find parent b in
        if ra <> rb then parent.(max ra rb) <- min ra rb
      | None, _ | Some _, None -> ()
    in
    Netlist.iter_gates c (fun g ->
        let arity = Array.length (Netlist.fanin c g) in
        match Netlist.kind c g with
        | Rt_circuit.Gate.And -> for k = 0 to arity - 1 do link g k false false done
        | Rt_circuit.Gate.Nand -> for k = 0 to arity - 1 do link g k false true done
        | Rt_circuit.Gate.Or -> for k = 0 to arity - 1 do link g k true true done
        | Rt_circuit.Gate.Nor -> for k = 0 to arity - 1 do link g k true false done
        | Rt_circuit.Gate.Buf ->
          link g 0 false false;
          link g 0 true true
        | Rt_circuit.Gate.Not ->
          link g 0 false true;
          link g 0 true false
        | _ -> ());
    let buckets = Hashtbl.create n in
    Array.iteri
      (fun i _ ->
        let r = find parent i in
        Hashtbl.replace buckets r (i :: Option.value ~default:[] (Hashtbl.find_opt buckets r)))
      faults;
    Hashtbl.fold
      (fun _ members acc ->
        Array.of_list (List.sort compare (List.rev_map (fun i -> faults.(i)) members)) :: acc)
      buckets []
    |> List.sort (fun a b -> compare a.(0) b.(0))
    |> Array.of_list
end

let collapse_matches_reference_qcheck =
  QCheck.Test.make ~name:"collapse equals the Hashtbl reference" ~count:60
    QCheck.(pair (int_range 0 10_000) (int_range 4 120))
    (fun (seed, gates) ->
      let c = Generators.random_circuit ~inputs:6 ~gates ~seed in
      let u = Fault.universe c in
      let expected = Reference.classes c u in
      let sign a b = Int.compare (Fault.compare a b) 0 = Int.compare (Reference.compare a b) 0 in
      Collapse.classes c u = expected
      && Collapse.collapsed_universe c = Array.map (fun cl -> cl.(0)) expected
      && Array.for_all (fun a -> Array.for_all (sign a) u) u)

let test_source_and_pp () =
  let b = Builder.create () in
  let x = Builder.input b "x" in
  let y = Builder.input b "y" in
  let g = Builder.and2 b x y in
  Builder.output b g;
  Builder.output b (Builder.or2 b x g);
  let c = Builder.finalize b in
  let f = { Fault.site = Fault.Stem x; stuck = true } in
  check Alcotest.int "stem source" x (Fault.source f c);
  check Alcotest.string "pp stem" "x s-a-1" (Fault.to_string c f)

let test_ratio () =
  let r = Collapse.ratio (Generators.c432ish ()) in
  check Alcotest.bool "ratio in (0,1)" true (r > 0.0 && r < 1.0)

let () =
  let q = QCheck_alcotest.to_alcotest ~long:false in
  Alcotest.run "rt_fault"
    [ ( "universe",
        [ Alcotest.test_case "counts" `Quick test_universe_counts;
          Alcotest.test_case "branch faults" `Quick test_universe_has_branch_faults;
          Alcotest.test_case "input faults" `Quick test_input_faults;
          Alcotest.test_case "source / pp" `Quick test_source_and_pp ] );
      ( "collapse",
        [ Alcotest.test_case "shrinks" `Quick test_collapse_shrinks;
          Alcotest.test_case "ratio" `Quick test_ratio;
          q collapse_equivalence_qcheck;
          q collapse_matches_reference_qcheck;
          q collapse_covers_universe_qcheck ] ) ]
