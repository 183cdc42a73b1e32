(* End-to-end integration tests: the full pipeline
   generate -> collapse -> analyse -> optimize -> simulate,
   on circuits small enough to run in seconds, with the central claims of
   the paper asserted quantitatively. *)

module Generators = Rt_circuit.Generators
module Netlist = Rt_circuit.Netlist
module Detect = Rt_testability.Detect
module Optimize = Rt_optprob.Optimize

let check = Alcotest.check

(* The quickstart circuit: a guarded equality detector. *)
let hard_circuit () =
  let b = Rt_circuit.Builder.create () in
  let xs = Rt_circuit.Builder.inputs b "x" 12 in
  let ys = Rt_circuit.Builder.inputs b "y" 12 in
  let en = Rt_circuit.Builder.inputs b "en" 2 in
  let eq = Generators.equality_comparator b xs ys in
  let armed = Rt_circuit.Builder.and2 b en.(0) en.(1) in
  Rt_circuit.Builder.output b ~name:"match" (Rt_circuit.Builder.and2 b eq armed);
  Rt_circuit.Builder.output b ~name:"parity" (Generators.parity b xs);
  Rt_circuit.Builder.finalize b

let coverage c faults weights ~n_patterns ~seed =
  let rng = Rt_util.Rng.create seed in
  let source = Rt_sim.Pattern.weighted rng weights in
  let stats = Rt_sim.Fault_sim.simulate ~drop:true c faults ~source ~n_patterns in
  Rt_sim.Fault_sim.coverage stats

let test_pipeline_improves_coverage () =
  let c = hard_circuit () in
  let faults = Rt_fault.Collapse.collapsed_universe c in
  let oracle = Detect.make (Detect.Bdd_exact { node_limit = 500_000 }) c faults in
  let report = Optimize.run oracle in
  (* The paper's central claim, end-to-end: orders of magnitude shorter
     tests and near-complete coverage at a pattern count where the
     conventional test fails badly. *)
  check Alcotest.bool "test length shrinks >= 100x" true (Optimize.improvement report > 100.0);
  let n_inputs = Array.length (Netlist.inputs c) in
  let conv = coverage c faults (Array.make n_inputs 0.5) ~n_patterns:2000 ~seed:11 in
  let opt = coverage c faults report.Optimize.weights ~n_patterns:2000 ~seed:11 in
  check Alcotest.bool "conventional below 90%" true (conv < 0.90);
  check Alcotest.bool "optimized above 99%" true (opt > 0.99)

let test_every_engine_drives_optimizer () =
  let c = Generators.wide_and 10 in
  let faults = Rt_fault.Collapse.collapsed_universe c in
  List.iter
    (fun (label, engine) ->
      let oracle = Detect.make engine c faults in
      let report = Optimize.run oracle in
      if Optimize.improvement report < 10.0 then
        Alcotest.failf "engine %s failed to optimize the wide AND (gain %.1f)" label
          (Optimize.improvement report))
    [ ("cop", Detect.Cop);
      ("bdd", Detect.Bdd_exact { node_limit = 100_000 });
      ("stafan", Detect.Stafan { n_patterns = 4_096; seed = 3 });
      ("monte-carlo", Detect.Monte_carlo { n_patterns = 4_096; seed = 3 }) ]

let test_bench_roundtrip_then_optimize () =
  (* The .bench file written by one tool run must feed the next one. *)
  let c = Generators.c432ish () in
  let path = Filename.temp_file "c432ish" ".bench" in
  Rt_circuit.Bench_format.save path c;
  let c2 = Rt_circuit.Bench_format.load path in
  Sys.remove path;
  let faults = Rt_fault.Collapse.collapsed_universe c2 in
  let oracle = Detect.make Detect.Cop c2 faults in
  let report = Optimize.run ~options:{ Optimize.default_options with Optimize.max_sweeps = 3 } oracle in
  check Alcotest.bool "finite result" true (Float.is_finite report.Optimize.n_final)

let test_weighted_selftest_end_to_end () =
  (* optimize -> quantise to the 4-bit dyadic grid -> a weighted random
     session beats the unweighted one. *)
  let c = hard_circuit () in
  let faults = Rt_fault.Collapse.collapsed_universe c in
  let oracle = Detect.make (Detect.Bdd_exact { node_limit = 500_000 }) c faults in
  let options =
    { Optimize.default_options with Optimize.quantize = Optimize.Dyadic 4 }
  in
  let report = Optimize.run ~options oracle in
  let session weights = coverage c faults weights ~n_patterns:2048 ~seed:11 in
  let conv = session (Array.make 26 0.5) in
  let opt = session report.Optimize.weights in
  check Alcotest.bool "weighted session wins" true (opt > conv +. 0.05);
  check Alcotest.bool "weighted session near complete" true (opt > 0.98)

let test_atpg_agrees_with_optimized_random () =
  (* Deterministic TPG and a long optimized random test must reach the
     same coverage (100% of detectable faults) on S1. *)
  let c = Generators.s1_comparator () in
  let faults = Rt_fault.Collapse.collapsed_universe c in
  let tpg = Rt_atpg.Tpg.generate c faults in
  check Alcotest.int "tpg covers everything" (Array.length faults) tpg.Rt_atpg.Tpg.detected;
  let oracle = Detect.make (Detect.Bdd_exact { node_limit = 2_000_000 }) c faults in
  let report = Optimize.run oracle in
  let cov = coverage c faults report.Optimize.weights ~n_patterns:12_000 ~seed:5 in
  check Alcotest.bool "optimized random reaches >= 99.5%" true (cov >= 0.995)

let test_partitioned_beats_single_on_antagonist () =
  let c = Generators.antagonist ~k:10 () in
  let faults = Rt_fault.Collapse.collapsed_universe c in
  let oracle = Detect.make (Detect.Bdd_exact { node_limit = 100_000 }) c faults in
  let sp = Rt_optprob.Partition.split oracle in
  (* Simulate the actual partitioned session: half the patterns from each
     distribution; compare against the single-distribution optimum at the
     same total budget. *)
  let budget = 2048 in
  let single = Optimize.run oracle in
  let cov_single = coverage c faults single.Optimize.weights ~n_patterns:budget ~seed:3 in
  let detected = Array.make (Array.length faults) false in
  Array.iteri
    (fun gi w ->
      ignore gi;
      let rng = Rt_util.Rng.create (300 + gi) in
      let source = Rt_sim.Pattern.weighted rng w in
      let stats =
        Rt_sim.Fault_sim.simulate ~drop:true c faults ~source
          ~n_patterns:(budget / Array.length sp.Rt_optprob.Partition.weights)
      in
      Array.iteri
        (fun i fd -> if fd >= 0 then detected.(i) <- true)
        stats.Rt_sim.Fault_sim.first_detect)
    sp.Rt_optprob.Partition.weights;
  let cov_parts =
    Float.of_int (Array.fold_left (fun a b -> if b then a + 1 else a) 0 detected)
    /. Float.of_int (Array.length faults)
  in
  check Alcotest.bool "partitioned session at least as good" true (cov_parts >= cov_single);
  check (Alcotest.float 1e-9) "partitioned session complete" 1.0 cov_parts

let () =
  Alcotest.run "integration"
    [ ( "pipeline",
        [ Alcotest.test_case "coverage improves" `Quick test_pipeline_improves_coverage;
          Alcotest.test_case "all engines drive optimizer" `Slow test_every_engine_drives_optimizer;
          Alcotest.test_case "bench roundtrip then optimize" `Quick
            test_bench_roundtrip_then_optimize;
          Alcotest.test_case "weighted selftest end to end" `Quick
            test_weighted_selftest_end_to_end;
          Alcotest.test_case "atpg agrees with optimized random" `Slow
            test_atpg_agrees_with_optimized_random;
          Alcotest.test_case "partitioned beats single" `Quick
            test_partitioned_beats_single_on_antagonist ] ) ]
