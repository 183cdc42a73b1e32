(* Quickstart: build a circuit, see why equiprobable random testing fails
   on it, optimize the input probabilities, and verify by fault simulation.

   Run with: dune exec examples/quickstart.exe *)

module B = Rt_circuit.Builder
module Netlist = Rt_circuit.Netlist

let () =
  (* A 12-bit equality detector guarded by a 3-deep enable chain: the
     classic random-pattern-resistant shape. *)
  let b = B.create () in
  let xs = B.inputs b "x" 12 in
  let ys = B.inputs b "y" 12 in
  let en = B.inputs b "en" 3 in
  let eq = Rt_circuit.Generators.equality_comparator b xs ys in
  let armed = B.andn b (Array.to_list en) in
  B.output b ~name:"match" (B.and2 b eq armed);
  B.output b ~name:"parity" (Rt_circuit.Generators.parity b xs);
  let c = B.finalize b in
  Format.printf "circuit: %t@." (fun ppf -> Netlist.stats c ppf);

  (* The stuck-at fault universe, equivalence-collapsed. *)
  let faults = Rt_fault.Collapse.collapsed_universe c in
  Format.printf "faults:  %d (collapsed from %d)@." (Array.length faults)
    (Array.length (Rt_fault.Fault.universe c));

  (* ANALYSIS oracle: exact detection probabilities via BDDs. *)
  let oracle =
    Rt_testability.Detect.make
      (Rt_testability.Detect.Bdd_exact { node_limit = 500_000 })
      c faults
  in
  let uniform = Array.make 27 0.5 in
  let pf = Rt_testability.Oracle.probs oracle uniform in
  let pmin = Array.fold_left Float.min 1.0 pf in
  Format.printf "hardest fault at X = 0.5: p = %a@." Rt_util.Prob.pp pmin;
  let n0 = Rt_testability.Test_length.required ~confidence:0.95 pf in
  Format.printf "required equiprobable test length: %.3e@." n0;

  (* Optimize the input probabilities (the paper's procedure). *)
  let report = Rt_optprob.Optimize.run oracle in
  Format.printf "optimized test length:             %.3e  (gain x%.0f)@."
    report.Rt_optprob.Optimize.n_final
    (Rt_optprob.Optimize.improvement report);
  Format.printf "weights:@.%a" (Rt_optprob.Weights_io.pp c) report.Rt_optprob.Optimize.weights;

  (* Verify by fault simulation: 4000 patterns under both distributions. *)
  let coverage weights seed =
    let rng = Rt_util.Rng.create seed in
    let source = Rt_sim.Pattern.weighted rng weights in
    let stats = Rt_sim.Fault_sim.simulate ~drop:true c faults ~source ~n_patterns:4000 in
    Rt_sim.Fault_sim.coverage stats
  in
  Format.printf "coverage after 4000 patterns: conventional %.1f%%, optimized %.1f%%@."
    (100.0 *. coverage uniform 42)
    (100.0 *. coverage report.Rt_optprob.Optimize.weights 42)
