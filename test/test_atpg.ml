(* Tests for Rt_atpg: three-valued logic, PODEM soundness (every test
   detects its fault), completeness of redundancy proofs against the exact
   BDD oracle, and the full TPG flow. *)

module T = Rt_atpg.Tristate
module Podem = Rt_atpg.Podem
module Tpg = Rt_atpg.Tpg
module Gate = Rt_circuit.Gate
module Netlist = Rt_circuit.Netlist
module Generators = Rt_circuit.Generators

let check = Alcotest.check

(* --- Tristate ------------------------------------------------------------------ *)

let test_tristate_refines_bool () =
  (* On fully known values, 3-valued evaluation equals boolean. *)
  List.iter
    (fun k ->
      let arity = match k with Gate.Buf | Gate.Not -> 1 | _ -> 3 in
      for v = 0 to (1 lsl arity) - 1 do
        let bools = Array.init arity (fun i -> (v lsr i) land 1 = 1) in
        let tri = Array.map T.of_bool bools in
        if T.eval k tri <> T.of_bool (Gate.eval k bools) then
          Alcotest.failf "%s at %d" (Gate.to_string k) v
      done)
    [ Gate.Buf; Gate.Not; Gate.And; Gate.Nand; Gate.Or; Gate.Nor; Gate.Xor; Gate.Xnor ]

let test_tristate_controlling_through_x () =
  check Alcotest.bool "0 and X = 0" true (T.eval Gate.And [| T.F; T.X |] = T.F);
  check Alcotest.bool "1 or X = 1" true (T.eval Gate.Or [| T.T; T.X |] = T.T);
  check Alcotest.bool "1 and X = X" true (T.eval Gate.And [| T.T; T.X |] = T.X);
  check Alcotest.bool "X xor 1 = X" true (T.eval Gate.Xor [| T.X; T.T |] = T.X)

let test_tristate_monotone () =
  (* Refining an X input never flips a known output (monotonicity of
     3-valued logic) — checked exhaustively for 2-input gates. *)
  let values = [ T.F; T.T; T.X ] in
  List.iter
    (fun k ->
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              let out = T.eval k [| a; b |] in
              if T.is_known out then begin
                let refine v = if v = T.X then [ T.F; T.T ] else [ v ] in
                List.iter
                  (fun a' ->
                    List.iter
                      (fun b' ->
                        if T.eval k [| a'; b' |] <> out then
                          Alcotest.failf "%s not monotone" (Gate.to_string k))
                      (refine b))
                  (refine a)
              end)
            values)
        values)
    [ Gate.And; Gate.Nand; Gate.Or; Gate.Nor; Gate.Xor; Gate.Xnor ]

(* --- PODEM ---------------------------------------------------------------------- *)

let podem_soundness_on name gen =
  let c = gen () in
  let faults = Rt_fault.Collapse.collapsed_universe c in
  Array.iter
    (fun f ->
      match Podem.generate ~backtrack_limit:2_000 c f with
      | Podem.Test p, _ ->
        if not (Rt_sim.Fault_sim.detects c f p) then
          Alcotest.failf "%s: test does not detect %s" name (Rt_fault.Fault.to_string c f)
      | Podem.Redundant, _ | Podem.Aborted, _ -> ())
    faults

let test_podem_sound_s1 () = podem_soundness_on "s1" Generators.s1_comparator
let test_podem_sound_c432 () = podem_soundness_on "c432ish" Generators.c432ish
let test_podem_sound_c1908 () = podem_soundness_on "c1908ish" Generators.c1908ish

let podem_vs_bdd_qcheck =
  QCheck.Test.make ~name:"podem verdicts agree with exact BDD" ~count:8
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c = Generators.random_circuit ~inputs:9 ~gates:50 ~seed in
      let faults = Rt_fault.Collapse.collapsed_universe c in
      let ok = ref true in
      Array.iter
        (fun f ->
          match Podem.generate ~backtrack_limit:50_000 c f with
          | Podem.Aborted, _ -> ()
          | verdict, _ ->
            let inj = Rt_testability.Detect.injection f in
            (match Rt_bdd.Bdd_circuit.detection_function c inj with
             | None -> ()
             | Some (_, det, _) ->
               let bdd_red = Rt_bdd.Bdd.is_zero det in
               (match verdict with
                | Podem.Redundant -> if not bdd_red then ok := false
                | Podem.Test _ -> if bdd_red then ok := false
                | Podem.Aborted -> ())))
        faults;
      !ok)

let test_podem_redundant_example () =
  (* or(and(x, not x), x): the AND output is constant 0, its s-a-0 is
     redundant; the s-a-1 is testable. *)
  let b = Rt_circuit.Builder.create ~fold:false ~prune:false () in
  let x = Rt_circuit.Builder.input b "x" in
  let nx = Rt_circuit.Builder.not_ b x in
  let zero = Rt_circuit.Builder.and2 b x nx in
  Rt_circuit.Builder.output b ~name:"y" (Rt_circuit.Builder.or2 b zero x);
  let c = Rt_circuit.Builder.finalize b in
  let node = Option.get (Netlist.find c (Netlist.name c zero)) in
  let verdict0, _ = Podem.generate c { Rt_fault.Fault.site = Rt_fault.Fault.Stem node; stuck = false } in
  check Alcotest.bool "s-a-0 redundant" true (verdict0 = Podem.Redundant);
  let verdict1, _ = Podem.generate c { Rt_fault.Fault.site = Rt_fault.Fault.Stem node; stuck = true } in
  (match verdict1 with
   | Podem.Test _ -> ()
   | Podem.Redundant | Podem.Aborted -> Alcotest.fail "s-a-1 should be testable")

let test_podem_cube () =
  let c = Generators.wide_and 6 in
  (* Output s-a-0 requires the all-ones cube (taken from the uncollapsed
     universe — collapsing folds it into the x0 s-a-0 class). *)
  let f =
    Array.to_list (Rt_fault.Fault.universe c)
    |> List.find (fun f ->
           match f.Rt_fault.Fault.site with
           | Rt_fault.Fault.Stem n -> (not f.Rt_fault.Fault.stuck) && Netlist.is_output c n
           | Rt_fault.Fault.Branch _ -> false)
  in
  match Podem.test_cube c f with
  | None -> Alcotest.fail "testable fault"
  | Some cube ->
    Array.iter
      (fun v -> if v <> T.T then Alcotest.fail "cube must be all ones")
      (Array.sub cube 0 6)

let test_podem_aborts_on_limit () =
  let c = Generators.s2_divider ~width:8 () in
  let faults = Rt_fault.Collapse.collapsed_universe c in
  (* With a ridiculous limit of 0 backtracks some fault must abort. *)
  let aborted =
    Array.exists
      (fun f -> match Podem.generate ~backtrack_limit:0 c f with
        | Podem.Aborted, _ -> true
        | (Podem.Test _ | Podem.Redundant), _ -> false)
      faults
  in
  check Alcotest.bool "aborts happen at limit 0" true aborted

(* --- TPG flow ------------------------------------------------------------------------ *)

let test_tpg_covers_s1 () =
  let c = Generators.s1_comparator () in
  let faults = Rt_fault.Collapse.collapsed_universe c in
  let r = Tpg.generate c faults in
  check Alcotest.int "all covered" (Array.length faults) r.Tpg.detected;
  check Alcotest.int "no redundant in s1" 0 (Array.length r.Tpg.redundant);
  (* The test set must actually achieve full coverage under simulation. *)
  let batches = ref (Rt_sim.Pattern.of_vectors r.Tpg.tests) in
  let source () =
    match !batches with
    | [] -> Alcotest.fail "exhausted"
    | b :: rest ->
      batches := rest;
      b
  in
  let stats =
    Rt_sim.Fault_sim.simulate ~drop:true c faults ~source ~n_patterns:(Array.length r.Tpg.tests)
  in
  check (Alcotest.float 1e-9) "simulated coverage 100%" 1.0 (Rt_sim.Fault_sim.coverage stats)

let test_tpg_compaction_no_loss () =
  let c = Generators.c432ish () in
  let faults = Rt_fault.Collapse.collapsed_universe c in
  let full = Tpg.generate ~compact:false c faults in
  let compact = Tpg.generate ~compact:true c faults in
  check Alcotest.int "same detection" full.Tpg.detected compact.Tpg.detected;
  check Alcotest.bool "compaction does not grow the set" true
    (Array.length compact.Tpg.tests <= Array.length full.Tpg.tests)

let test_prune_redundant () =
  let c = Generators.s2_divider ~width:6 () in
  let faults = Rt_fault.Collapse.collapsed_universe c in
  let kept, redundant = Tpg.prune_redundant ~backtrack_limit:5_000 c faults in
  check Alcotest.int "partition of the universe" (Array.length faults)
    (Array.length kept + Array.length redundant);
  check Alcotest.bool "divider has redundancy" true (Array.length redundant > 0);
  (* Spot check: each proven-redundant fault is indeed undetectable per BDD. *)
  Array.iteri
    (fun i f ->
      if i mod 5 = 0 then begin
        let inj = Rt_testability.Detect.injection f in
        match Rt_bdd.Bdd_circuit.detection_function c inj with
        | None -> ()
        | Some (_, det, _) ->
          if not (Rt_bdd.Bdd.is_zero det) then
            Alcotest.failf "%s wrongly proven redundant" (Rt_fault.Fault.to_string c f)
      end)
    redundant

let () =
  let q = QCheck_alcotest.to_alcotest ~long:false in
  Alcotest.run "rt_atpg"
    [ ( "tristate",
        [ Alcotest.test_case "refines bool" `Quick test_tristate_refines_bool;
          Alcotest.test_case "controlling through X" `Quick test_tristate_controlling_through_x;
          Alcotest.test_case "monotone" `Quick test_tristate_monotone ] );
      ( "podem",
        [ Alcotest.test_case "sound on s1" `Quick test_podem_sound_s1;
          Alcotest.test_case "sound on c432ish" `Quick test_podem_sound_c432;
          Alcotest.test_case "sound on c1908ish" `Quick test_podem_sound_c1908;
          q podem_vs_bdd_qcheck;
          Alcotest.test_case "redundancy example" `Quick test_podem_redundant_example;
          Alcotest.test_case "test cube" `Quick test_podem_cube;
          Alcotest.test_case "abort at limit" `Quick test_podem_aborts_on_limit ] );
      ( "tpg",
        [ Alcotest.test_case "covers s1" `Quick test_tpg_covers_s1;
          Alcotest.test_case "compaction lossless" `Quick test_tpg_compaction_no_loss;
          Alcotest.test_case "prune redundant" `Quick test_prune_redundant ] ) ]
