(* Property and unit tests for Rt_circuit.Passes: per-pass semantics
   preservation on randomly generated redundant netlists, fixpoint
   idempotence of the driver, fault map-back equivalence under the
   (jobs, block_words) grid, and the .bench parser tolerances the
   optimization demo files rely on. *)

open Rt_circuit
module Passes = Rt_circuit.Passes

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Random redundant netlists: Builder with folding and pruning off,
   seeded with constants, buffer chains, double negations, single-fanin
   n-ary gates and a guaranteed dead cone — raw material for every
   pass. *)

let redundant_circuit ?(n_gates = 30) ~n_inputs seed =
  let rng = Rt_util.Rng.create seed in
  let b = Builder.create ~fold:false ~prune:false () in
  let ins = Builder.inputs b "x" n_inputs in
  let c0 = Builder.const b false and c1 = Builder.const b true in
  let pool = ref (Array.to_list ins) in
  let pick () =
    let p = Array.of_list !pool in
    p.(Rt_util.Rng.int rng (Array.length p))
  in
  let nary = [| Gate.And; Gate.Or; Gate.Xor; Gate.Nand; Gate.Nor; Gate.Xnor |] in
  for _ = 1 to n_gates do
    let g =
      match Rt_util.Rng.int rng 10 with
      | 0 -> Builder.buf b (pick ())
      | 1 -> Builder.not_ b (Builder.not_ b (pick ()))
      | 2 ->
        (* constant fanin: neutral or controlling depending on kind *)
        let k = nary.(Rt_util.Rng.int rng 6) in
        let c = if Rt_util.Rng.bool rng then c0 else c1 in
        Builder.gate b k [ pick (); c ]
      | 3 ->
        (* degenerate single-fanin n-ary gate *)
        Builder.gate b nary.(Rt_util.Rng.int rng 6) [ pick () ]
      | _ ->
        let k = nary.(Rt_util.Rng.int rng 6) in
        let arity = 1 + Rt_util.Rng.int rng 3 in
        Builder.gate b k (List.init arity (fun _ -> pick ()))
    in
    pool := g :: !pool
  done;
  (* Outputs from the middle of the pool, so later gates form dead cones;
     gates only (no inputs/constants) and deduplicated. *)
  let gates =
    List.filter
      (fun n -> not (Array.exists (( = ) n) ins || n = c0 || n = c1))
      !pool
  in
  let gates = Array.of_list gates in
  let n_out = 1 + Rt_util.Rng.int rng 3 in
  let chosen = ref [] in
  for _ = 1 to n_out do
    let g = gates.(Rt_util.Rng.int rng (Array.length gates)) in
    if not (List.mem g !chosen) then chosen := g :: !chosen
  done;
  List.iter (fun g -> Builder.output b g) !chosen;
  Builder.finalize b

let exhaustive_inputs n =
  List.init (1 lsl n) (fun v -> Array.init n (fun i -> (v lsr i) land 1 = 1))

let same_outputs c c' =
  let n = Array.length (Netlist.inputs c) in
  List.for_all (fun inp -> Netlist.eval_outputs c inp = Netlist.eval_outputs c' inp)
    (exhaustive_inputs n)

(* ------------------------------------------------------------------ *)
(* Per-pass contract: eval_outputs preserved exactly, inputs and outputs
   pinned, remap internally consistent. *)

let pass_contract_ok pass c =
  match Passes.apply pass c with
  | None -> true
  | Some (c', r) ->
    let ins = Netlist.inputs c and ins' = Netlist.inputs c' in
    let outs = Netlist.outputs c and outs' = Netlist.outputs c' in
    Passes.Remap.size_before r = Netlist.size c
    && Passes.Remap.size_after r = Netlist.size c'
    && Array.length ins = Array.length ins'
    && Array.for_all2 (fun o n -> Netlist.name c o = Netlist.name c' n) ins ins'
    && Array.for_all2 (fun i i' -> Passes.Remap.forward r i = Some i') ins ins'
    && Array.length outs = Array.length outs'
    && Array.for_all2 (fun o n -> Netlist.name c o = Netlist.name c' n) outs outs'
    && (let ok = ref true in
        for ni = 0 to Netlist.size c' - 1 do
          let oi = Passes.Remap.back r ni in
          if Passes.Remap.forward r oi <> Some ni then ok := false;
          if Netlist.name c oi <> Netlist.name c' ni then ok := false
        done;
        !ok)
    && same_outputs c c'

let pass_preservation_qcheck =
  QCheck.Test.make ~name:"every pass preserves eval_outputs and the pin contract"
    ~count:80
    QCheck.(pair (int_range 0 100_000) (int_range 2 5))
    (fun (seed, n_inputs) ->
      let c = redundant_circuit ~n_inputs seed in
      List.for_all (fun p -> pass_contract_ok p c) Passes.all)

let driver_preservation_qcheck =
  QCheck.Test.make ~name:"fixpoint driver preserves eval_outputs" ~count:80
    QCheck.(pair (int_range 0 100_000) (int_range 2 5))
    (fun (seed, n_inputs) ->
      let c = redundant_circuit ~n_inputs seed in
      let c', r, stats = Passes.run c in
      Netlist.size c' <= Netlist.size c
      && stats.Passes.rounds >= 1
      && Passes.Remap.size_before r = Netlist.size c
      && Passes.Remap.size_after r = Netlist.size c'
      && same_outputs c c')

let driver_idempotence_qcheck =
  QCheck.Test.make ~name:"fixpoint driver is idempotent" ~count:60
    QCheck.(pair (int_range 0 100_000) (int_range 2 5))
    (fun (seed, n_inputs) ->
      let c = redundant_circuit ~n_inputs seed in
      let c1, _, _ = Passes.run c in
      let c2, r2, _ = Passes.run c1 in
      Passes.Remap.is_identity r2
      && Bench_format.to_string c1 = Bench_format.to_string c2)

(* [Passes.relevel]'s order as it was computed before its counting
   sorts: an [Array.sort] on the tuple key (level, tie, id) under
   polymorphic compare, inputs at tie [min_int] and every other node at
   minus its fanout. *)
let reference_relevel_order c =
  let key i =
    let tie =
      match Netlist.kind c i with
      | Gate.Input -> min_int
      | _ -> -Array.length (Netlist.fanout c i)
    in
    (Netlist.level c i, tie, i)
  in
  let order = Array.init (Netlist.size c) Fun.id in
  Array.sort (fun a b -> compare (key a) (key b)) order;
  order

(* The permutation [relevel] applies: new id -> old id. *)
let relevel_order c =
  match Passes.apply Passes.relevel c with
  | None -> Array.init (Netlist.size c) Fun.id
  | Some (c', r) -> Array.init (Netlist.size c') (Passes.Remap.back r)

let relevel_matches_reference_qcheck =
  QCheck.Test.make ~name:"relevel order equals the tuple-key sort" ~count:60
    QCheck.(triple (int_range 0 100_000) (int_range 2 12) (int_range 4 120))
    (fun (seed, inputs, gates) ->
      let rng = Rt_util.Rng.create seed in
      List.for_all
        (fun c -> relevel_order c = reference_relevel_order c)
        [ Generators.random_circuit ~inputs ~gates ~seed;
          Multi_pin.circuit rng ~inputs ~gates;
          redundant_circuit ~n_inputs:(min inputs 5) seed ])

(* The paper circuits, raw and after the fixpoint (where relevel is the
   identity). *)
let test_relevel_paper_suite () =
  List.iter
    (fun (name, gen) ->
      let c = gen () in
      let opt, _, _ = Passes.run c in
      List.iter
        (fun (what, c) ->
          if relevel_order c <> reference_relevel_order c then
            Alcotest.failf "%s (%s): relevel order differs from the tuple-key sort" name what)
        [ ("raw", c); ("optimized", opt) ])
    Generators.paper_suite

let empty_pass_list_is_identity () =
  let c = redundant_circuit ~n_inputs:3 7 in
  let c', r, stats = Passes.run ~passes:[] c in
  check Alcotest.bool "same netlist" true (c == c');
  check Alcotest.bool "identity remap" true (Passes.Remap.is_identity r);
  check Alcotest.int "zero rounds" 0 stats.Passes.rounds

(* ------------------------------------------------------------------ *)
(* Fault map-back: the collapsed universe generated on the optimized
   netlist, mapped to original names, detects exactly like the same
   faults simulated on the original netlist — across the (jobs, W)
   grid. *)

let test_map_back_detection () =
  List.iter
    (fun seed ->
      let c = redundant_circuit ~n_inputs:4 ~n_gates:24 seed in
      let opt, remap, _ = Passes.run c in
      let pairs =
        Array.map
          (fun f -> (f, Rt_fault.Fault.map_back ~remap ~original:c ~optimized:opt f))
          (Rt_fault.Collapse.collapsed_universe opt)
      in
      let opt_faults = Array.map fst pairs in
      let orig_faults =
        Array.map
          (fun (f, back) ->
            match back with
            | Some f' -> f'
            | None ->
              Alcotest.failf "map_back returned None for %s"
                (Rt_fault.Fault.to_string opt f))
          pairs
      in
      List.iter
        (fun (jobs, block_words) ->
          let simulate c faults =
            Rt_sim.Fault_sim.simulate ~jobs ~block_words ~drop:false c faults
              ~source:(Rt_sim.Pattern.equiprobable (Rt_util.Rng.create 4242)
                         ~n_inputs:(Array.length (Netlist.inputs c)))
              ~n_patterns:192
          in
          let s_opt = simulate opt opt_faults in
          let s_orig = simulate c orig_faults in
          let tag = Printf.sprintf "seed=%d jobs=%d W=%d" seed jobs block_words in
          check Alcotest.(array int)
            (tag ^ " detect_count")
            s_orig.Rt_sim.Fault_sim.detect_count s_opt.Rt_sim.Fault_sim.detect_count;
          check Alcotest.(array int)
            (tag ^ " first_detect")
            s_orig.Rt_sim.Fault_sim.first_detect s_opt.Rt_sim.Fault_sim.first_detect)
        [ (1, 1); (1, 8); (4, 1); (4, 8) ])
    [ 11; 5077; 90210 ]

(* ------------------------------------------------------------------ *)
(* Bench format tolerances: BUFF alias, CRLF line endings, trailing
   whitespace — the forms ISCAS distributions actually ship in. *)

let bench_text =
  "# tolerance fixture\n\
   INPUT(a)\n\
   INPUT(b)\n\
   OUTPUT(y)\n\
   OUTPUT(z)\n\
   w = BUFF(a)\n\
   y = AND(w, b)\n\
   z = BUFF(y)\n"

let test_bench_buff_alias () =
  let c = Bench_format.parse bench_text in
  let node name = match Netlist.find c name with Some n -> n | None -> Alcotest.failf "no %s" name in
  check Alcotest.bool "BUFF parses as Buf" true (Netlist.kind c (node "w") = Gate.Buf);
  check Alcotest.bool "z is Buf" true (Netlist.kind c (node "z") = Gate.Buf);
  (* print spells Buf back as BUFF, so the text roundtrips *)
  let c2 = Bench_format.parse (Bench_format.to_string c) in
  check Alcotest.string "roundtrip" (Bench_format.to_string c) (Bench_format.to_string c2)

let test_bench_crlf_and_whitespace () =
  (* Same netlist, but with CRLF endings, trailing blanks and padded
     argument lists. *)
  let dirty =
    String.concat "\r\n"
      [ "# tolerance fixture ";
        "INPUT( a )\t";
        "INPUT(b)  ";
        "OUTPUT(y)";
        "OUTPUT(z)\t ";
        "w = BUFF( a ) ";
        "y = AND( w , b )";
        "z = BUFF(y)";
        "" ]
  in
  let clean = Bench_format.parse bench_text in
  let parsed = Bench_format.parse dirty in
  check Alcotest.string "CRLF + whitespace tolerated" (Bench_format.to_string clean)
    (Bench_format.to_string parsed)

(* `dune runtest` runs tests from the test directory; `dune exec` from
   wherever it was invoked — accept both. *)
let example file =
  let candidates =
    [ Filename.concat "../examples" file;
      Filename.concat "examples" file;
      Filename.concat "_build/default/examples" file ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> Alcotest.failf "example %s not found" file

let test_c17_loads_and_is_fixpoint () =
  let c = Bench_format.load (example "c17.bench") in
  check Alcotest.int "inputs" 5 (Array.length (Netlist.inputs c));
  check Alcotest.int "outputs" 2 (Array.length (Netlist.outputs c));
  check Alcotest.int "gates" 6 (Netlist.gate_count c);
  let c', _, _ = Passes.run c in
  check Alcotest.int "no nodes removed" (Netlist.size c) (Netlist.size c');
  check Alcotest.bool "semantics preserved" true (same_outputs c c')

let test_opt_demo_shape () =
  let c = Bench_format.load (example "opt_demo.bench") in
  check Alcotest.int "raw size" 16 (Netlist.size c);
  let c', remap, _ = Passes.run c in
  check Alcotest.int "optimized size" 5 (Netlist.size c');
  check Alcotest.bool "semantics preserved" true (same_outputs c c');
  check Alcotest.bool "remap not identity" false (Passes.Remap.is_identity remap);
  let node name =
    match Netlist.find c' name with Some n -> n | None -> Alcotest.failf "no %s" name
  in
  let y = node "y" and z = node "z" in
  check Alcotest.bool "y is AND" true (Netlist.kind c' y = Gate.And);
  check
    Alcotest.(list string)
    "y fanin" [ "a"; "b"; "c" ]
    (Netlist.fanin c' y |> Array.to_list |> List.map (Netlist.name c') |> List.sort compare);
  check Alcotest.bool "z is BUFF(y)" true
    (Netlist.kind c' z = Gate.Buf && (Netlist.fanin c' z).(0) = y)

let () =
  let q = QCheck_alcotest.to_alcotest ~long:false in
  Alcotest.run "rt_passes"
    [ ( "properties",
        [ q pass_preservation_qcheck;
          q driver_preservation_qcheck;
          q driver_idempotence_qcheck;
          q relevel_matches_reference_qcheck;
          Alcotest.test_case "relevel order on the paper suite" `Quick test_relevel_paper_suite;
          Alcotest.test_case "empty pass list is the identity" `Quick
            empty_pass_list_is_identity ] );
      ( "fault-map-back",
        [ Alcotest.test_case "collapsed universe maps back, detection identical (jobs x W)"
            `Slow test_map_back_detection ] );
      ( "bench-format",
        [ Alcotest.test_case "BUFF alias" `Quick test_bench_buff_alias;
          Alcotest.test_case "CRLF and trailing whitespace" `Quick
            test_bench_crlf_and_whitespace;
          Alcotest.test_case "c17.bench loads; already a fixpoint" `Quick
            test_c17_loads_and_is_fixpoint;
          Alcotest.test_case "opt_demo.bench optimizes 16 -> 5" `Quick
            test_opt_demo_shape ] ) ]
