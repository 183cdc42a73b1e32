(* Tests for Rt_testability: signal probability engines, observability
   (COP's and STAFAN's measured fold), the detection-probability
   oracles, and test-length computation. *)

module Fault_sim = Rt_sim.Fault_sim
module Detect = Rt_testability.Detect
module Oracle = Rt_testability.Oracle
module Cop_eval = Rt_testability.Cop_eval
module Test_length = Rt_testability.Test_length
module Netlist = Rt_circuit.Netlist
module Generators = Rt_circuit.Generators
module Builder = Rt_circuit.Builder

(* Signal-probability references: the independence estimate (the COP
   sweep's signal-probability pass over every node), its PREDICT-style
   Shannon expansion over {!Detect.conditioning_set}, and the exact
   values from BDDs, which measure how far reconvergence moves the
   estimate. *)
module Signal_prob = struct
  let independence_with cones c x =
    let n = Netlist.size c in
    fst (Cop_eval.sweep cones ~sp_mask:(Array.make n true) ~obs_mask:(Array.make n false) x)

  let independence c x = independence_with (Cop_eval.cones c) c x

  (* Average the independence sweep over every assignment of the
     conditioning set, weighted by the assignment's probability. *)
  let conditioned ?max_vars c x =
    let set = Detect.conditioning_set ?max_vars c in
    let positions = Array.map (fun i -> Netlist.input_index c i) set in
    let acc = Array.make (Netlist.size c) 0.0 in
    let x' = Array.copy x in
    let cones = Cop_eval.cones c in
    for a = 0 to (1 lsl Array.length set) - 1 do
      let weight = ref 1.0 in
      Array.iteri
        (fun j pos ->
          if (a lsr j) land 1 = 1 then begin
            x'.(pos) <- 1.0;
            weight := !weight *. x.(pos)
          end
          else begin
            x'.(pos) <- 0.0;
            weight := !weight *. (1.0 -. x.(pos))
          end)
        positions;
      if !weight > 0.0 then
        Array.iteri
          (fun n v -> acc.(n) <- acc.(n) +. (!weight *. v))
          (independence_with cones c x')
    done;
    acc

  let exact c x = Bdd_ref.signal_probs c x

  (* Largest absolute gap between the estimate and the exact values. *)
  let max_error c x =
    Option.map
      (fun ex ->
        let est = independence c x in
        let worst = ref 0.0 in
        Array.iteri (fun i e -> worst := Float.max !worst (Float.abs (e -. est.(i)))) ex;
        !worst)
      (exact c x)
end

let check = Alcotest.check

(* Parallel.sweep clamps to the hardware core count; lifting the clamp
   makes the jobs > 1 oracles below run real pool domains on any host. *)
let () = Unix.putenv "OPTPROB_JOBS_OVERCOMMIT" "1"

let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun u v -> Int64.equal (Int64.bits_of_float u) (Int64.bits_of_float v)) a b

(* A fanout-free tree: independence propagation is exact there. *)
let tree_circuit () =
  let b = Builder.create () in
  let x = Builder.inputs b "x" 6 in
  let a1 = Builder.and2 b x.(0) x.(1) in
  let o1 = Builder.or2 b x.(2) x.(3) in
  let x1 = Builder.xor2 b x.(4) x.(5) in
  let top = Builder.orn b [ a1; o1 ] in
  Builder.output b ~name:"t" (Builder.and2 b top x1);
  Builder.finalize b

let test_independence_exact_on_trees () =
  let c = tree_circuit () in
  let x = [| 0.3; 0.7; 0.2; 0.9; 0.5; 0.4 |] in
  let est = Signal_prob.independence c x in
  match Signal_prob.exact c x with
  | None -> Alcotest.fail "tiny circuit must fit"
  | Some ex ->
    Array.iteri
      (fun i e ->
        if Float.abs (e -. est.(i)) > 1e-9 then
          Alcotest.failf "node %d: exact %.6f vs independence %.6f" i e est.(i))
      ex

let test_max_error_positive_on_reconvergent () =
  (* y = x AND x through two paths: independence gets 0.25, truth is 0.5. *)
  let b = Builder.create ~fold:false () in
  let x = Builder.input b "x" in
  let p1 = Builder.buf b x in
  let p2 = Builder.buf b x in
  Builder.output b ~name:"y" (Builder.and2 b p1 p2);
  let c = Builder.finalize b in
  match Signal_prob.max_error c [| 0.5 |] with
  | None -> Alcotest.fail "must fit"
  | Some err -> check (Alcotest.float 1e-9) "error is 0.25" 0.25 err

let test_conditioned_exact_when_covering () =
  (* y = x AND x via two buffers: conditioning on x (its fanout is 2) makes
     the estimate exact where independence got 0.25. *)
  let b = Builder.create ~fold:false () in
  let x = Builder.input b "x" in
  let p1 = Builder.buf b x in
  let p2 = Builder.buf b x in
  let g = Builder.and2 b p1 p2 in
  Builder.output b ~name:"y" g;
  let c = Builder.finalize b in
  let est = Signal_prob.conditioned c [| 0.5 |] in
  check (Alcotest.float 1e-9) "exact after conditioning" 0.5 est.(g)

let conditioned_improves_qcheck =
  (* Across random circuits the conditioned estimator's mean absolute
     error against the exact probabilities must not exceed plain
     independence's. *)
  QCheck.Test.make ~name:"conditioning never hurts on average" ~count:20
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c = Generators.random_circuit ~inputs:7 ~gates:35 ~seed in
      let x = Array.make 7 0.5 in
      match Signal_prob.exact c x with
      | None -> QCheck.assume_fail ()
      | Some ex ->
        let err est =
          let s = ref 0.0 in
          Array.iteri (fun i p -> s := !s +. Float.abs (p -. est.(i))) ex;
          !s
        in
        err (Signal_prob.conditioned c x) <= err (Signal_prob.independence c x) +. 1e-9)

let test_observability_range_and_outputs () =
  let c = Generators.c880ish () in
  let x = Array.make 22 0.5 in
  let all = Array.make (Netlist.size c) true in
  let _, obs = Cop_eval.sweep (Cop_eval.cones c) ~sp_mask:all ~obs_mask:all x in
  Array.iter
    (fun o ->
      if o < -1e-12 || o > 1.0 +. 1e-12 then Alcotest.failf "observability %f out of range" o)
    obs;
  Array.iter
    (fun o -> if obs.(o) < 1.0 -. 1e-12 then Alcotest.fail "primary output must have obs 1")
    (Netlist.outputs c)

let test_pin_sensitization () =
  let b = Builder.create () in
  let x = Builder.input b "x" in
  let y = Builder.input b "y" in
  let g = Builder.and2 b x y in
  Builder.output b g;
  let c = Builder.finalize b in
  (* A branch fault's p_f is activation x sensitization x obs(g), and
     obs(g) = 1 at the output: pin 0 (x) is sensitized by P(y = 1) = 0.8,
     pin 1 (y) by P(x = 1) = 0.3. *)
  let branch k = { Rt_fault.Fault.site = Rt_fault.Fault.Branch (g, k); stuck = false } in
  let faults = [| branch 0; branch 1 |] in
  let plan = Oracle.make_plan c faults [| 0; 1 |] in
  let pf = Cop_eval.probs_plan (Cop_eval.cones c) plan [| 0.3; 0.8 |] in
  check (Alcotest.float 1e-9) "and pin sens" 0.8 (pf.(0) /. 0.3);
  check (Alcotest.float 1e-9) "and pin 1 sens" 0.3 (pf.(1) /. 0.8)

(* g = AND(a, a, b) reads a on two pins: a's observability has one
   branch per pin, each sensitized by the product over the other pins,
   p_a * p_b for both, so obs(a) = 1 - (1 - p_a p_b)^2 and not the
   four-branch 1 - (1 - p_a p_b)^4.  STAFAN's measured sensitizations
   recombine the same way. *)
let test_reader_on_two_pins () =
  let b = Builder.create () in
  let a = Builder.input b "a" in
  let bi = Builder.input b "b" in
  let g = Builder.andn b [ a; a; bi ] in
  Builder.output b g;
  let c = Builder.finalize b in
  let pa = 0.6 and pb = 0.7 in
  let all = Array.make (Netlist.size c) true in
  let _, obs = Cop_eval.sweep (Cop_eval.cones c) ~sp_mask:all ~obs_mask:all [| pa; pb |] in
  let two_branches s = 1.0 -. ((1.0 -. s) *. (1.0 -. s)) in
  check (Alcotest.float 1e-12) "cop obs(a)" (two_branches (pa *. pb)) obs.(a);
  check (Alcotest.float 1e-12) "cop obs(b)" (pa *. pa) obs.(bi);
  let counts =
    { Fault_sim.n_patterns = 100;
      ones = Array.make (Netlist.size c) 0;
      sens = Array.init (Netlist.size c) (fun n -> Array.make (Array.length (Netlist.fanin c n)) 30) }
  in
  let sobs = Cop_eval.observability_counted (Cop_eval.cones c) ~mask:all counts in
  check (Alcotest.float 1e-12) "stafan obs(a)" (two_branches 0.3) sobs.(a)

let test_cop_exact_on_single_and () =
  (* For z = AND(x, y), fault z s-a-0: COP predicts p(x=1)p(y=1). *)
  let b = Builder.create () in
  let x = Builder.input b "x" in
  let y = Builder.input b "y" in
  let g = Builder.and2 b x y in
  Builder.output b g;
  let c = Builder.finalize b in
  let f = [| { Rt_fault.Fault.site = Rt_fault.Fault.Stem g; stuck = false } |] in
  let o = Detect.make Detect.Cop c f in
  let pf = Oracle.probs o [| 0.4; 0.7 |] in
  check (Alcotest.float 1e-9) "cop exact here" (0.4 *. 0.7) pf.(0)

let oracle_agreement_qcheck =
  (* All four engines agree within Monte-Carlo tolerance on small circuits
     (COP only roughly: factor ~4 or absolute 0.12 — it is an estimator). *)
  QCheck.Test.make ~name:"bdd oracle equals mc oracle within noise" ~count:8
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c = Generators.random_circuit ~inputs:7 ~gates:30 ~seed in
      let faults = Rt_fault.Collapse.collapsed_universe c in
      let bdd = Detect.make (Detect.Bdd_exact { node_limit = 500_000 }) c faults in
      let mc = Detect.make (Detect.Monte_carlo { n_patterns = 8_000; seed = 5 }) c faults in
      let x = Array.make 7 0.5 in
      let pb = Oracle.probs bdd x in
      let pm = Oracle.probs mc x in
      let exact = Oracle.exact_mask bdd in
      let ok = ref true in
      Array.iteri
        (fun i p ->
          if exact.(i) then begin
            let tol = (3.0 *. Rt_sim.Detect_mc.confidence_halfwidth ~p ~n:8_000) +. 0.01 in
            if Float.abs (p -. pm.(i)) > tol then ok := false
          end)
        pb;
      !ok)

let test_stafan_close_to_exact_on_tree () =
  let c = tree_circuit () in
  let faults = Rt_fault.Collapse.collapsed_universe c in
  let stafan = Detect.make (Detect.Stafan { n_patterns = 20_000; seed = 3 }) c faults in
  let bdd = Detect.make (Detect.Bdd_exact { node_limit = 100_000 }) c faults in
  let x = Array.make 6 0.5 in
  let ps = Oracle.probs stafan x in
  let pb = Oracle.probs bdd x in
  Array.iteri
    (fun i p ->
      (* trees have no reconvergence: STAFAN's independence assumptions are
         close to exact; activation x observability still ignores their
         correlation, so allow a loose band. *)
      if Float.abs (p -. pb.(i)) > 0.15 then
        Alcotest.failf "fault %d: stafan %.3f vs exact %.3f" i p pb.(i))
    ps

let subset_matches_gather_qcheck =
  (* The subset-aware PREPARE path must agree exactly with gathering from
     the full sweep on every engine: the cone-restricted sweeps compute the
     same arithmetic on the masked nodes, the BDD engine's per-root
     probabilities are memo-independent, and MC/STAFAN counting is
     per-fault independent. *)
  QCheck.Test.make ~name:"probs_subset equals gathered full probs on every engine" ~count:10
    QCheck.(pair (int_range 0 10_000) (int_range 0 1_000))
    (fun (seed, wseed) ->
      let c = Generators.random_circuit ~inputs:7 ~gates:30 ~seed in
      let faults = Rt_fault.Collapse.collapsed_universe c in
      let nf = Array.length faults in
      if nf = 0 then QCheck.assume_fail ()
      else begin
        let rng = Rt_util.Rng.create wseed in
        let x = Array.init 7 (fun _ -> 0.05 +. (0.9 *. Rt_util.Rng.float rng)) in
        let subset =
          let l = List.filter (fun _ -> Rt_util.Rng.float rng < 0.4) (List.init nf Fun.id) in
          Array.of_list (match l with [] -> [ Rt_util.Rng.int rng nf ] | l -> l)
        in
        let engines =
          [ Detect.Cop;
            Detect.Conditioned { max_vars = 3 };
            Detect.Bdd_exact { node_limit = 200_000 };
            Detect.Stafan { n_patterns = 256; seed = 3 };
            Detect.Monte_carlo { n_patterns = 256; seed = 5 } ]
        in
        List.for_all
          (fun e ->
            let o = Detect.make e c faults in
            let full = Oracle.probs o x in
            let plan = Oracle.plan o subset in
            let sub = Oracle.probs_plan o plan x in
            (* Query twice: a plan is reusable across queries. *)
            let sub2 = Oracle.probs_plan o plan x in
            let ok = ref (Array.length sub = Array.length subset) in
            Array.iteri
              (fun j fi ->
                if Float.abs (sub.(j) -. full.(fi)) > 1e-12 then ok := false;
                if sub2.(j) <> sub.(j) then ok := false)
              subset;
            !ok)
          engines
      end)

let jobs_oracle_agreement_qcheck =
  (* [jobs] never changes a result: sharded per-fault work writes
     disjoint slots with the serial expressions, and the conditioned
     expansion sums its assignments in one order at every job count.  So
     full queries and cofactor pairs are bit-identical on every engine. *)
  QCheck.Test.make ~name:"oracle with jobs=3 matches jobs=1" ~count:6
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c = Generators.random_circuit ~inputs:7 ~gates:30 ~seed in
      let faults = Rt_fault.Collapse.collapsed_universe c in
      let nf = Array.length faults in
      if nf = 0 then QCheck.assume_fail ()
      else begin
        let x = Array.make 7 0.4 in
        let all = Array.init nf Fun.id in
        let agree e =
          let o1 = Detect.make ~jobs:1 e c faults and o3 = Detect.make ~jobs:3 e c faults in
          let p1 = Oracle.plan o1 all and p3 = Oracle.plan o3 all in
          bits_equal (Oracle.probs o1 x) (Oracle.probs o3 x)
          && List.for_all
               (fun input ->
                 let a0, a1 = Oracle.cofactor_pair o1 p1 ~input ~x in
                 let b0, b1 = Oracle.cofactor_pair o3 p3 ~input ~x in
                 bits_equal a0 b0 && bits_equal a1 b1)
               (List.init 7 Fun.id)
        in
        List.for_all agree
          [ Detect.Cop;
            Detect.Conditioned { max_vars = 3 };
            Detect.Bdd_exact { node_limit = 200_000 };
            Detect.Stafan { n_patterns = 256; seed = 3 };
            Detect.Monte_carlo { n_patterns = 256; seed = 5 } ]
      end)

let cofactor_matches_two_subsets_qcheck =
  (* The protocol's central contract: [Oracle.cofactor_pair] — fused
     incremental path or generic fallback, at any [jobs] — returns exactly
     what two independent [probs_plan] evaluations at x_i = 0 / 1
     return, bit for bit, and never mutates the caller's [x]. *)
  QCheck.Test.make ~name:"cofactor_pair bit-identical to two probs_plan on every engine"
    ~count:8
    QCheck.(pair (int_range 0 10_000) (int_range 0 1_000))
    (fun (seed, wseed) ->
      let c = Generators.random_circuit ~inputs:7 ~gates:30 ~seed in
      let faults = Rt_fault.Collapse.collapsed_universe c in
      let nf = Array.length faults in
      if nf = 0 then QCheck.assume_fail ()
      else begin
        let rng = Rt_util.Rng.create wseed in
        let x = Array.init 7 (fun _ -> 0.05 +. (0.9 *. Rt_util.Rng.float rng)) in
        let subset =
          let l = List.filter (fun _ -> Rt_util.Rng.float rng < 0.4) (List.init nf Fun.id) in
          Array.of_list (match l with [] -> [ Rt_util.Rng.int rng nf ] | l -> l)
        in
        let engines =
          [ Detect.Cop;
            Detect.Conditioned { max_vars = 3 };
            Detect.Bdd_exact { node_limit = 200_000 };
            Detect.Stafan { n_patterns = 256; seed = 3 };
            Detect.Monte_carlo { n_patterns = 256; seed = 5 } ]
        in
        (* A second subset, so that queries can switch plans A -> B -> A:
           each switch rebuilds the base point and re-cuts the damage
           cones, which the conditioned engine's states share. *)
        let subset_b =
          Array.of_list (List.filter (fun _ -> Rt_util.Rng.float rng < 0.5) (List.init nf Fun.id))
        in
        let subset_b = if Array.length subset_b = 0 then [| nf - 1 |] else subset_b in
        let check_engine ~jobs e =
          let o = Detect.make ~jobs e c faults in
          let plan = Oracle.plan o subset and plan_b = Oracle.plan o subset_b in
          let agree_at ~plan ~subset i =
            let reference v =
              let x' = Array.copy x in
              x'.(i) <- v;
              Oracle.probs_plan o (Oracle.plan o subset) x'
            in
            let x_before = Array.copy x in
            let pf0, pf1 = Oracle.cofactor_pair o plan ~input:i ~x in
            x = x_before && pf0 = reference 0.0 && pf1 = reference 1.0
          in
          let on_a = agree_at ~plan ~subset and on_b = agree_at ~plan:plan_b ~subset:subset_b in
          (* Every input at a fixed base point (warm incremental caches on
             repeat queries), then move the base by one coordinate and
             query again — the optimizer's commit path — then switch to
             plan B and back to A, at the moved base point. *)
          let ok = ref true in
          for i = 0 to 6 do
            if not (on_a i) then ok := false
          done;
          x.(2) <- 0.05 +. (0.9 *. Rt_util.Rng.float rng);
          if not (on_a 5) then ok := false;
          List.iter (fun i -> if not (on_b i) then ok := false) [ 5; 0; 3 ];
          x.(4) <- 0.05 +. (0.9 *. Rt_util.Rng.float rng);
          List.iter (fun i -> if not (on_a i) then ok := false) [ 3; 6; 0 ];
          if not (on_b 1) then ok := false;
          !ok
        in
        List.for_all (fun e -> check_engine ~jobs:1 e && check_engine ~jobs:4 e) engines
      end)

let cofactor_affinity_qcheck =
  (* Eq. 15's premise: an exact p_f(X) is multilinear, so along one
     coordinate it is the affine blend of its two cofactors.  Holds for
     the exact engine's exact faults (estimators are polynomial, not
     affine, in x_i under reconvergent fanout). *)
  QCheck.Test.make ~name:"exact p_f is affine between its cofactors" ~count:8
    QCheck.(pair (int_range 0 10_000) (int_range 0 6))
    (fun (seed, input) ->
      let c = Generators.random_circuit ~inputs:7 ~gates:30 ~seed in
      let faults = Rt_fault.Collapse.collapsed_universe c in
      let nf = Array.length faults in
      if nf = 0 then QCheck.assume_fail ()
      else begin
        let o = Detect.make (Detect.Bdd_exact { node_limit = 500_000 }) c faults in
        let exact = Oracle.exact_mask o in
        let subset = Array.init nf Fun.id in
        let x = Array.init 7 (fun i -> 0.2 +. (0.05 *. Float.of_int i)) in
        let plan = Oracle.plan o subset in
        let pf0, pf1 = Oracle.cofactor_pair o plan ~input ~x in
        List.for_all
          (fun y ->
            let x' = Array.copy x in
            x'.(input) <- y;
            let pf = Oracle.probs_plan o plan x' in
            let ok = ref true in
            Array.iteri
              (fun f p ->
                if exact.(f) then begin
                  let blend = ((1.0 -. y) *. pf0.(f)) +. (y *. pf1.(f)) in
                  if Float.abs (p -. blend) > 1e-9 then ok := false
                end)
              pf;
            !ok)
          [ 0.0; 0.25; 0.5; 1.0 ]
      end)

(* --- Kernel bit-identity ---------------------------------------------------

   Verbatim copies of the per-node kernels as they were before the
   fanin-indexed loops replaced them: the gate formula over an
   [Array.map]-gathered fanin vector, and the observability sweeps that
   cons branch observabilities onto a list and fold it.  The library's
   allocation-free kernels must reproduce these floats bit for bit. *)
module Ref_kernels = struct
  module Gate = Rt_circuit.Gate

  let gate_prob k (ps : float array) =
    let prod () = Array.fold_left ( *. ) 1.0 ps in
    let prod_compl () = Array.fold_left (fun acc p -> acc *. (1.0 -. p)) 1.0 ps in
    let xor () = Array.fold_left (fun a b -> (a *. (1.0 -. b)) +. (b *. (1.0 -. a))) 0.0 ps in
    match k with
    | Gate.Input -> invalid_arg "Gate.prob: Input has no gate function"
    | Gate.Const0 -> 0.0
    | Gate.Const1 -> 1.0
    | Gate.Buf -> ps.(0)
    | Gate.Not -> 1.0 -. ps.(0)
    | Gate.And -> prod ()
    | Gate.Nand -> 1.0 -. prod ()
    | Gate.Or -> 1.0 -. prod_compl ()
    | Gate.Nor -> prod_compl ()
    | Gate.Xor -> xor ()
    | Gate.Xnor -> 1.0 -. xor ()

  let independence_subset c ~mask x =
    let n = Netlist.size c in
    let p = Array.make n 0.0 in
    for i = 0 to n - 1 do
      if mask.(i) then
        match Netlist.kind c i with
        | Gate.Input -> p.(i) <- x.(Netlist.input_index c i)
        | k ->
          let args = Array.map (fun j -> p.(j)) (Netlist.fanin c i) in
          p.(i) <- gate_prob k args
    done;
    p

  let pin_sensitization c ~node_probs g k =
    let fi = Netlist.fanin c g in
    match Netlist.kind c g with
    | Gate.Input | Gate.Const0 | Gate.Const1 -> invalid_arg "not a gate"
    | Gate.Buf | Gate.Not -> 1.0
    | Gate.Xor | Gate.Xnor -> 1.0
    | Gate.And | Gate.Nand ->
      let p = ref 1.0 in
      Array.iteri (fun j f -> if j <> k then p := !p *. node_probs.(f)) fi;
      !p
    | Gate.Or | Gate.Nor ->
      let p = ref 1.0 in
      Array.iteri (fun j f -> if j <> k then p := !p *. (1.0 -. node_probs.(f))) fi;
      !p

  (* The shared backward sweep; [branch obs reader k] is one branch's
     observability (COP or STAFAN).  One branch per pin that reads g: a
     reader on several pins of g fills adjacent slots of
     [Netlist.fanout g], and only the first of them is visited. *)
  let sweep c ~mask ~branch =
    let n = Netlist.size c in
    let obs = Array.make n 0.0 in
    for g = n - 1 downto 0 do
      if mask.(g) then begin
        let base = if Netlist.is_output c g then 1.0 else 0.0 in
        let branch_obs = ref [] in
        let readers = Netlist.fanout c g in
        Array.iteri
          (fun ri reader ->
            if ri = 0 || readers.(ri - 1) <> reader then begin
              let fi = Netlist.fanin c reader in
              Array.iteri
                (fun k f -> if f = g then branch_obs := branch obs reader k :: !branch_obs)
                fi
            end)
          readers;
        obs.(g) <- 1.0 -. List.fold_left (fun acc o -> acc *. (1.0 -. o)) (1.0 -. base) !branch_obs
      end
    done;
    obs

  let cop_subset c ~mask ~node_probs =
    sweep c ~mask ~branch:(fun obs reader k ->
        pin_sensitization c ~node_probs reader k *. obs.(reader))

  (* A plan's p_f from scratch: masked sweeps, then activation x the
     faulted line's observability, a branch's through its pin. *)
  let probs_plan c plan x =
    let sp = independence_subset c ~mask:(Oracle.sp_mask plan) x in
    let obs = cop_subset c ~mask:(Oracle.obs_mask plan) ~node_probs:sp in
    Array.map
      (fun f ->
        let src = Rt_fault.Fault.source f c in
        let act = if f.Rt_fault.Fault.stuck then 1.0 -. sp.(src) else sp.(src) in
        match f.Rt_fault.Fault.site with
        | Rt_fault.Fault.Stem n -> act *. obs.(n)
        | Rt_fault.Fault.Branch (g, k) ->
          act *. (pin_sensitization c ~node_probs:sp g k *. obs.(g)))
      (Oracle.selected plan)

  let stafan_subset c ~mask (counts : Fault_sim.counts) =
    let total = Float.of_int counts.n_patterns in
    sweep c ~mask ~branch:(fun obs reader k ->
        Float.of_int counts.sens.(reader).(k) /. total *. obs.(reader))

  (* STAFAN's p_f from scratch: measured activation x the faulted line's
     observability, a branch's through its measured sensitization,
     associated as (act * s) * obs. *)
  let stafan_probs_plan c plan (counts : Fault_sim.counts) =
    let total = Float.of_int counts.n_patterns in
    let obs = stafan_subset c ~mask:(Oracle.obs_mask plan) counts in
    Array.map
      (fun f ->
        let c1 = Float.of_int counts.ones.(Rt_fault.Fault.source f c) /. total in
        let act = if f.Rt_fault.Fault.stuck then 1.0 -. c1 else c1 in
        match f.Rt_fault.Fault.site with
        | Rt_fault.Fault.Stem n -> act *. obs.(n)
        | Rt_fault.Fault.Branch (g, k) ->
          act *. (Float.of_int counts.sens.(g).(k) /. total) *. obs.(g))
      (Oracle.selected plan)
end

let check_kernels c rng =
  let n = Netlist.size c in
  let inputs = Array.length (Netlist.inputs c) in
  (* Mostly interior points, plus exact 0/1/0.5 corners. *)
  let x =
    Array.init inputs (fun _ ->
        match Rt_util.Rng.int rng 8 with
        | 0 -> 0.0
        | 1 -> 1.0
        | 2 -> 0.5
        | _ -> Rt_util.Rng.float rng)
  in
  let all = Array.make n true and none = Array.make n false in
  let mask = Array.init n (fun _ -> Rt_util.Rng.float rng < 0.7) in
  let expect what a b = if not (bits_equal a b) then QCheck.Test.fail_reportf "%s differs" what in
  let cones = Cop_eval.cones c in
  let sp = Signal_prob.independence c x in
  expect "independence" (Ref_kernels.independence_subset c ~mask:all x) sp;
  expect "masked signal probabilities"
    (Ref_kernels.independence_subset c ~mask x)
    (fst (Cop_eval.sweep cones ~sp_mask:mask ~obs_mask:none x));
  let counts =
    { Fault_sim.n_patterns = 256;
      ones = Array.init n (fun _ -> Rt_util.Rng.int rng 257);
      sens =
        Array.init n (fun g -> Array.map (fun _ -> Rt_util.Rng.int rng 257) (Netlist.fanin c g)) }
  in
  List.iter
    (fun (what, mask) ->
      expect ("cop" ^ what)
        (Ref_kernels.cop_subset c ~mask ~node_probs:sp)
        (snd (Cop_eval.sweep cones ~sp_mask:all ~obs_mask:mask x));
      expect ("stafan" ^ what)
        (Ref_kernels.stafan_subset c ~mask counts)
        (Cop_eval.observability_counted cones ~mask counts))
    [ ("", all); ("_subset", mask) ];
  let faults = Rt_fault.Fault.universe c in
  let subset =
    List.init (Array.length faults) Fun.id
    |> List.filter (fun _ -> Rt_util.Rng.float rng < 0.4)
    |> Array.of_list
  in
  let plan = Oracle.make_plan c faults subset in
  expect "stafan p_f"
    (Ref_kernels.stafan_probs_plan c plan counts)
    (Cop_eval.probs_counted cones plan counts)

let kernels_bit_identical_qcheck =
  QCheck.Test.make ~name:"fanin-indexed kernels bit-identical to the gathered-array reference"
    ~count:40
    QCheck.(triple (int_range 0 10_000) (int_range 0 1_000) (int_range 4 12))
    (fun (seed, wseed, inputs) ->
      let rng = Rt_util.Rng.create wseed in
      check_kernels (Generators.random_circuit ~inputs ~gates:(6 * inputs) ~seed) rng;
      check_kernels (Multi_pin.circuit rng ~inputs ~gates:(6 * inputs)) rng;
      true)

(* The compiled evaluator against the references from scratch, along a
   random walk of the moves PREPARE makes: committed one-coordinate moves
   (0/1 corners included) of any input or of the one just cofactored,
   steps that leave the point unchanged, jumps of several coordinates,
   and switches between plans, two of which have another plan's masks
   with a permuted or a larger subset.  Each step queries [cofactor_pair]
   and, two times in three, [eval] before it, so a cofactor pair is
   followed by either query.  After every step both must reproduce
   [Ref_kernels.probs_plan] bit for bit on one shared state.  The
   multi-pin circuits give nodes several observability edges into one
   reader, so the edge order is exercised within a reader as well as
   across readers. *)
let check_walk c rng =
  let ni = Array.length (Netlist.inputs c) in
  let faults = Rt_fault.Fault.universe c in
  let nf = Array.length faults in
  let random_subset () =
    match List.filter (fun _ -> Rt_util.Rng.float rng < 0.3) (List.init nf Fun.id) with
    | [] -> [ Rt_util.Rng.int rng nf ]
    | l -> l
  in
  let plan_of l = Oracle.make_plan c faults (Array.of_list l) in
  let all = plan_of (List.init nf Fun.id) in
  let subset1 = random_subset () in
  let p1 = plan_of subset1 and p2 = plan_of (random_subset ()) in
  (* Same masks as [p1]: its subset reversed, and every fault whose site
     its observability mask already holds. *)
  let reversed = plan_of (List.rev subset1) in
  let widened =
    let inside i =
      let site =
        match faults.(i).Rt_fault.Fault.site with
        | Rt_fault.Fault.Stem s -> s
        | Rt_fault.Fault.Branch (g, _) -> g
      in
      (Oracle.obs_mask p1).(site)
    in
    plan_of (List.filter inside (List.init nf Fun.id))
  in
  List.iter
    (fun p ->
      if Oracle.sp_mask p <> Oracle.sp_mask p1 || Oracle.obs_mask p <> Oracle.obs_mask p1 then
        QCheck.Test.fail_report "a same-mask plan has other masks")
    [ reversed; widened ];
  let plans = [| all; p1; p2; reversed; widened |] in
  let value () =
    match Rt_util.Rng.int rng 6 with
    | 0 -> 0.0
    | 1 -> 1.0
    | _ -> Rt_util.Rng.float rng
  in
  let st = Cop_eval.create (Cop_eval.cones c) in
  let x = Array.init ni (fun _ -> value ()) in
  let plan = ref plans.(0) in
  let last = ref 0 in
  let expect step what a b =
    if not (bits_equal a b) then QCheck.Test.fail_reportf "step %d: %s differs" step what
  in
  for step = 0 to 59 do
    (match Rt_util.Rng.int rng 10 with
     | 0 | 1 -> plan := plans.(Rt_util.Rng.int rng (Array.length plans))
     | 2 ->
       for _ = 0 to 2 do
         x.(Rt_util.Rng.int rng ni) <- value ()
       done
     | 3 -> ()
     | 4 | 5 -> x.(!last) <- value ()
     | _ -> x.(Rt_util.Rng.int rng ni) <- value ());
    if Rt_util.Rng.int rng 3 > 0 then
      expect step "eval" (Ref_kernels.probs_plan c !plan x) (Cop_eval.eval st !plan x);
    let input = Rt_util.Rng.int rng ni in
    last := input;
    let pf0, pf1 = Cop_eval.cofactor_pair st !plan ~input x in
    let at v =
      let x' = Array.copy x in
      x'.(input) <- v;
      Ref_kernels.probs_plan c !plan x'
    in
    expect step "cofactor 0" (at 0.0) pf0;
    expect step "cofactor 1" (at 1.0) pf1
  done

let compiled_walk_qcheck =
  QCheck.Test.make ~name:"compiled evaluator equals the references along a PREPARE walk"
    ~count:30
    QCheck.(triple (int_range 0 10_000) (int_range 0 1_000) (int_range 3 10))
    (fun (seed, wseed, inputs) ->
      (* The shrinker can step below the range's lower bound. *)
      let inputs = max 3 inputs in
      let rng = Rt_util.Rng.create wseed in
      check_walk (Generators.random_circuit ~inputs ~gates:(5 * inputs) ~seed) rng;
      check_walk (Multi_pin.circuit rng ~inputs ~gates:(5 * inputs)) rng;
      true)

(* The damage cone is sound: a node whose masked-sweep signal probability
   or observability moves when input i is set to 0 or 1 is in the plan's
   cone of i, so the patch recomputes it. *)
let damage_cone_covers_changes_qcheck =
  QCheck.Test.make ~name:"damage cone holds every node a one-input change moves" ~count:40
    QCheck.(pair (int_range 0 10_000) (int_range 0 1_000))
    (fun (seed, wseed) ->
      let c = Generators.random_circuit ~inputs:7 ~gates:30 ~seed in
      let faults = Rt_fault.Collapse.collapsed_universe c in
      let nf = Array.length faults in
      if nf = 0 then QCheck.assume_fail ()
      else begin
        let rng = Rt_util.Rng.create wseed in
        let x = Array.init 7 (fun _ -> 0.05 +. (0.9 *. Rt_util.Rng.float rng)) in
        let subset =
          let l = List.filter (fun _ -> Rt_util.Rng.float rng < 0.4) (List.init nf Fun.id) in
          Array.of_list (match l with [] -> [ Rt_util.Rng.int rng nf ] | l -> l)
        in
        let plan = Oracle.plan (Detect.make Detect.Cop c faults) subset in
        let cones = Cop_eval.cones c in
        let sweep x =
          Cop_eval.sweep cones ~sp_mask:(Oracle.sp_mask plan) ~obs_mask:(Oracle.obs_mask plan) x
        in
        let sp, obs = sweep x in
        let differs a b g = Int64.bits_of_float a.(g) <> Int64.bits_of_float b.(g) in
        let ok = ref true in
        for i = 0 to 6 do
          let sp_cone, _, obs_cone = Cop_eval.cone cones plan ~input:i in
          List.iter
            (fun v ->
              let x' = Array.copy x in
              x'.(i) <- v;
              let sp', obs' = sweep x' in
              for g = 0 to Netlist.size c - 1 do
                if differs sp sp' g && not (Array.mem g sp_cone) then ok := false;
                if differs obs obs' g && not (Array.mem g obs_cone) then ok := false
              done)
            [ 0.0; 1.0 ]
        done;
        !ok
      end)

(* The sensitization cut is sound: a gate of the plan's observability
   mask whose pin sensitization (the product over its other pins) moves
   when input i is set to 0 or 1 is in the plan's sensitization cut of i,
   so the patch refills its slots.  Multi-pin netlists wire one node into
   several pins of a gate, where one dirty node is several dirty pins. *)
let check_sens_cut c rng =
  let ni = Array.length (Netlist.inputs c) and n = Netlist.size c in
  let faults = Rt_fault.Fault.universe c in
  let nf = Array.length faults in
  let x = Array.init ni (fun _ -> 0.05 +. (0.9 *. Rt_util.Rng.float rng)) in
  let subset =
    match List.filter (fun _ -> Rt_util.Rng.float rng < 0.4) (List.init nf Fun.id) with
    | [] -> [ Rt_util.Rng.int rng nf ]
    | l -> l
  in
  let plan = Oracle.make_plan c faults (Array.of_list subset) in
  let om = Oracle.obs_mask plan in
  let cones = Cop_eval.cones c in
  let sp_at x =
    fst (Cop_eval.sweep cones ~sp_mask:(Oracle.sp_mask plan) ~obs_mask:(Array.make n false) x)
  in
  let sens sp r k = Ref_kernels.pin_sensitization c ~node_probs:sp r k in
  let sp = sp_at x in
  for i = 0 to ni - 1 do
    let _, sens_cut, _ = Cop_eval.cone cones plan ~input:i in
    Array.iter
      (fun r -> if not om.(r) then QCheck.Test.fail_reportf "input %d: gate %d is unmasked" i r)
      sens_cut;
    List.iter
      (fun v ->
        let x' = Array.copy x in
        x'.(i) <- v;
        let sp' = sp_at x' in
        for r = 0 to n - 1 do
          if om.(r) then
            Array.iteri
              (fun k _ ->
                if
                  Int64.bits_of_float (sens sp r k) <> Int64.bits_of_float (sens sp' r k)
                  && not (Array.mem r sens_cut)
                then QCheck.Test.fail_reportf "input %d at %g: gate %d pin %d moved" i v r k)
              (Netlist.fanin c r)
        done)
      [ 0.0; 1.0 ]
  done

let sens_cut_covers_changes_qcheck =
  QCheck.Test.make ~name:"sensitization cut holds every gate a one-input change moves" ~count:40
    QCheck.(pair (int_range 0 10_000) (int_range 0 1_000))
    (fun (seed, wseed) ->
      let rng = Rt_util.Rng.create wseed in
      check_sens_cut (Generators.random_circuit ~inputs:7 ~gates:30 ~seed) rng;
      check_sens_cut (Multi_pin.circuit rng ~inputs:7 ~gates:30) rng;
      true)

(* A node is observability-dirty only when its COP observability reads a
   changed value: a reader's observability, or another pin's signal
   probability at an AND/NAND/OR/NOR reader.  The looser rule (any reader
   with any signal-dirty fanin) marked 211.0 nodes per input on s1, this
   one 195.3. *)
let test_s1_obs_cone_total () =
  let c = Generators.s1_comparator () in
  let cones = Cop_eval.cones c in
  let total = ref 0 in
  for input = 0 to Array.length (Netlist.inputs c) - 1 do
    total := !total + snd (Cop_eval.full_cone_sizes cones ~input)
  done;
  check Alcotest.int "obs-dirty nodes over all inputs" 9374 !total

(* PREPARE's COP [cofactor_pair] patches ~200 nodes of a damage cone per
   cofactor on s1; the per-node kernels allocate nothing, so what a call
   allocates is its two result arrays (2 (nf + 1) words) plus per-call
   bookkeeping, not a multiple of the cone size. *)
let test_cop_cofactor_allocation () =
  let c = Generators.s1_comparator () in
  let faults = Rt_fault.Collapse.collapsed_universe c in
  let nf = min 256 (Array.length faults) in
  let o = Detect.make ~jobs:1 Detect.Cop c faults in
  let plan = Oracle.plan o (Array.init nf Fun.id) in
  let ni = Array.length (Netlist.inputs c) in
  let x = Array.make ni 0.5 in
  let bound = Float.of_int ((4 * nf) + 256) in
  let measure what sweep =
    sweep ();
    let before = Gc.minor_words () in
    sweep ();
    let per_call = (Gc.minor_words () -. before) /. Float.of_int ni in
    if per_call > bound then
      Alcotest.failf "%s: cofactor_pair allocates %.0f minor words per call (bound %.0f)" what
        per_call bound
  in
  measure "fixed x" (fun () ->
      for i = 0 to ni - 1 do
        ignore (Sys.opaque_identity (Oracle.cofactor_pair o plan ~input:i ~x))
      done);
  (* As [Optimize.run] sweeps: after its query, each coordinate moves, so
     the next query commits that move's cone patch into the base point. *)
  let flip = ref false in
  measure "committed moves" (fun () ->
      flip := not !flip;
      for i = 0 to ni - 1 do
        ignore (Sys.opaque_identity (Oracle.cofactor_pair o plan ~input:i ~x));
        x.(i) <- (if !flip then 0.25 else 0.5)
      done)

let test_proven_redundant () =
  let b = Builder.create ~fold:false ~prune:false () in
  let x = Builder.input b "x" in
  let nx = Builder.not_ b x in
  let zero = Builder.and2 b x nx in
  Builder.output b ~name:"y" (Builder.or2 b zero x);
  let c = Builder.finalize b in
  let faults = Rt_fault.Fault.universe c in
  let o = Detect.make (Detect.Bdd_exact { node_limit = 100_000 }) c faults in
  let red = Oracle.proven_redundant o in
  let n_red = Array.fold_left (fun a b -> if b then a + 1 else a) 0 red in
  check Alcotest.bool "found redundancies" true (n_red > 0);
  (* A redundant fault's reported probability is 0 at any X. *)
  let pf = Oracle.probs o [| 0.3 |] in
  Array.iteri (fun i r -> if r && pf.(i) <> 0.0 then Alcotest.fail "redundant with p > 0") red

(* The exact engine's generations on S1, pinned: one roomy generation,
   two tight ones, and a limit so small that faults fall back to COP.
   The storage inside the BDD manager must not move node ids, so these
   labels and the exact p_f are fixed points of any change to it. *)
let test_bdd_generations_pinned () =
  let c = Generators.s1_comparator () in
  let faults = Rt_fault.Collapse.collapsed_universe c in
  let engine node_limit = Detect.make (Detect.Bdd_exact { node_limit }) c faults in
  let roomy = engine 500_000 and tight = engine 30_000 in
  check Alcotest.string "500k label" "bdd-exact(534/534 exact, 1 generations, 40554 nodes)"
    (Oracle.describe roomy);
  check Alcotest.string "30k label" "bdd-exact(534/534 exact, 2 generations, 43379 nodes)"
    (Oracle.describe tight);
  check Alcotest.string "8k label" "bdd-exact(324/534 exact, 6 generations, 47988 nodes)"
    (Oracle.describe (engine 8_000));
  let x = Array.make (Array.length (Netlist.inputs c)) 0.5 in
  let p_roomy = Oracle.probs roomy x and p_tight = Oracle.probs tight x in
  Array.iteri
    (fun f p ->
      if Int64.bits_of_float p <> Int64.bits_of_float p_tight.(f) then
        Alcotest.failf "fault %d: p_f %h with one generation, %h with three" f p p_tight.(f))
    p_roomy

(* The reference detection function for the exact engine's region
   decomposition: the whole faulty circuit rebuilt in a fresh manager and
   XORed with the good circuit at every output.  Returns the probability
   at [x] and whether the function is zero. *)
let reference_detection c f x =
  let module Bdd = Rt_bdd.Bdd in
  let order = Rt_bdd.Bdd_circuit.dfs_order c in
  let m = Bdd.manager ~nvars:(Array.length (Netlist.inputs c)) () in
  let good = Rt_bdd.Bdd_circuit.build_into m ~order c in
  let n = Netlist.size c in
  let const = if f.Rt_fault.Fault.stuck then Bdd.one m else Bdd.zero m in
  let bad = Array.make n (Bdd.zero m) in
  for i = 0 to n - 1 do
    bad.(i) <-
      (match (f.Rt_fault.Fault.site, Netlist.kind c i) with
       | Rt_fault.Fault.Stem s, _ when s = i -> const
       | _, Rt_circuit.Gate.Input -> good.(i)
       | site, k ->
         let args = Array.map (fun j -> bad.(j)) (Netlist.fanin c i) in
         (match site with
          | Rt_fault.Fault.Branch (g, pin) when g = i -> args.(pin) <- const
          | Rt_fault.Fault.Branch _ | Rt_fault.Fault.Stem _ -> ());
         Bdd.apply_kind m k args)
  done;
  let detect =
    Array.fold_left
      (fun acc o -> Bdd.or_ m acc (Bdd.xor_ m good.(o) bad.(o)))
      (Bdd.zero m) (Netlist.outputs c)
  in
  let x_of_var = Array.make (Array.length order) 0.5 in
  Array.iteri (fun i v -> x_of_var.(v) <- x.(i)) order;
  (Bdd.prob m detect (fun v -> x_of_var.(v)), Bdd.is_zero detect)

(* Every stem fault and a fault on every gate pin, whatever the driver's
   fanout: the decomposition must hold for sites the collapsed universe
   never asks about too. *)
let every_site_fault c =
  let acc = ref [] in
  for i = Netlist.size c - 1 downto 0 do
    Array.iteri
      (fun k _ ->
        acc :=
          { Rt_fault.Fault.site = Rt_fault.Fault.Branch (i, k); stuck = false }
          :: { Rt_fault.Fault.site = Rt_fault.Fault.Branch (i, k); stuck = true }
          :: !acc)
      (Netlist.fanin c i);
    acc :=
      { Rt_fault.Fault.site = Rt_fault.Fault.Stem i; stuck = false }
      :: { Rt_fault.Fault.site = Rt_fault.Fault.Stem i; stuck = true }
      :: !acc
  done;
  Array.of_list !acc

(* The engine's p_f and redundancy flag, fault by fault, against the full
   rebuild; [""] when all agree bit for bit. *)
let engine_vs_reference c faults xs =
  let o = Detect.make (Detect.Bdd_exact { node_limit = 500_000 }) c faults in
  let exact = Oracle.exact_mask o and red = Oracle.proven_redundant o in
  let problems = Buffer.create 64 in
  List.iter
    (fun x ->
      let pf = Oracle.probs o x in
      Array.iteri
        (fun i f ->
          let p, zero = reference_detection c f x in
          let name = Rt_fault.Fault.to_string c f in
          if not exact.(i) then Printf.bprintf problems "%s not exact; " name
          else if Int64.bits_of_float p <> Int64.bits_of_float pf.(i) then
            Printf.bprintf problems "%s: engine %h, rebuild %h; " name pf.(i) p
          else if zero <> red.(i) then
            Printf.bprintf problems "%s: redundant flag %b; " name red.(i))
        faults)
    xs;
  Buffer.contents problems

let random_points rng ni k = List.init k (fun _ -> Array.init ni (fun _ -> Rt_util.Rng.float rng))

(* Mostly linear gates over AND/OR-type ones: the Delta-built
   observability (linear gates XOR their dirty pins' Deltas) meets
   reconvergent AND/OR gates inside it. *)
let xor_rich = Rt_circuit.Gate.[| Xor; Xnor; Xor; Xnor; Buf; Not; And; Nand; Or; Nor |]

let bdd_regions_match_rebuild_qcheck =
  QCheck.Test.make ~name:"bdd region decomposition equals full rebuild" ~count:20
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Rt_util.Rng.create seed in
      let check_circuit c =
        let ni = Array.length (Netlist.inputs c) in
        let problems = engine_vs_reference c (every_site_fault c) (random_points rng ni 2) in
        if problems <> "" then QCheck.Test.fail_reportf "seed %d: %s" seed problems
      in
      check_circuit (Generators.random_circuit ~inputs:7 ~gates:30 ~seed);
      check_circuit (Multi_pin.circuit rng ~inputs:5 ~gates:25);
      check_circuit (Multi_pin.circuit ~kinds:xor_rich rng ~inputs:6 ~gates:30);
      true)

(* Two syndrome bits over five data bits, each XOR expanded into four
   NAND2s as c1355ish expands c499ish, decoded by an AND and an OR: every
   flip of an XOR operand reconverges on two NANDs, so these roots take
   the flipped-cone observability. *)
let nand_xor_circuit () =
  let b = Rt_circuit.Builder.create ~fold:false () in
  let d = Rt_circuit.Builder.inputs b "d" 5 in
  let xor x y =
    let t1 = Rt_circuit.Builder.nand2 b x y in
    Rt_circuit.Builder.nand2 b (Rt_circuit.Builder.nand2 b x t1) (Rt_circuit.Builder.nand2 b y t1)
  in
  let s0 = xor (xor d.(0) d.(1)) d.(2) and s1 = xor (xor d.(1) d.(3)) d.(4) in
  Rt_circuit.Builder.output b ~name:"s0" s0;
  Rt_circuit.Builder.output b ~name:"s1" s1;
  Rt_circuit.Builder.output b ~name:"both" (Rt_circuit.Builder.and2 b s0 s1);
  Rt_circuit.Builder.output b ~name:"either" (Rt_circuit.Builder.or2 b s0 d.(4));
  Rt_circuit.Builder.finalize b

(* The region roots of [c] whose observability is built each way, and
   whether some Delta-built cone holds a non-linear gate reading it on two
   or more pins. *)
let obs_builds c =
  let root = Rt_circuit.Cone.ffr_roots c in
  let n = Netlist.size c in
  let flipped = ref 0 and delta = ref 0 and delta_reconvergent = ref false in
  for r = 0 to n - 1 do
    if root.(r) = r then
      match Detect.obs_build_for c r with
      | Detect.Flipped -> incr flipped
      | Detect.Delta ->
        incr delta;
        let cone = Array.make n false in
        cone.(r) <- true;
        for i = r + 1 to n - 1 do
          let dirty =
            Array.fold_left (fun k j -> if cone.(j) then k + 1 else k) 0 (Netlist.fanin c i)
          in
          if dirty > 0 then cone.(i) <- true;
          match Netlist.kind c i with
          | Rt_circuit.Gate.(Buf | Not | Xor | Xnor) -> ()
          | _ -> if dirty >= 2 then delta_reconvergent := true
        done
  done;
  (!flipped, !delta, !delta_reconvergent)

let xor_rich_fixture () =
  Multi_pin.circuit ~kinds:xor_rich (Rt_util.Rng.create 11) ~inputs:6 ~gates:30

let test_bdd_nand_xor () =
  let c = nand_xor_circuit () in
  let flipped, _, _ = obs_builds c in
  check Alcotest.bool "some root takes the flipped cone" true (flipped > 0);
  let _, delta, reconvergent = obs_builds (xor_rich_fixture ()) in
  check Alcotest.bool "xor-rich fixture: Delta through a reconvergent gate" true
    (delta > 0 && reconvergent);
  let rng = Rt_util.Rng.create 3 in
  check Alcotest.string "engine equals full rebuild" ""
    (engine_vs_reference c (every_site_fault c) (Array.make 5 0.5 :: random_points rng 5 3))

(* Both observability constructions of every region root, in one manager,
   are the same node: BDDs are canonical, so the engine's per-root choice
   cannot move a probability. *)
let test_obs_builds_equal () =
  let module Bdd = Rt_bdd.Bdd in
  List.iter
    (fun (name, c) ->
      let m = Bdd.manager ~nvars:(Array.length (Netlist.inputs c)) () in
      let good = Rt_bdd.Bdd_circuit.build_into m ~order:(Rt_bdd.Bdd_circuit.dfs_order c) c in
      let root = Rt_circuit.Cone.ffr_roots c in
      Array.iteri
        (fun r rr ->
          if rr = r then begin
            let delta = Detect.root_observability ~build:Detect.Delta c m ~good r in
            let flipped = Detect.root_observability ~build:Detect.Flipped c m ~good r in
            if not (Bdd.equal delta flipped) then Alcotest.failf "%s root %d: builds differ" name r
          end)
        root)
    [ ("nand-xor", nand_xor_circuit ());
      ("xor-rich", xor_rich_fixture ());
      ("s1", Generators.s1_comparator ()) ]

(* One netlist with each region shape the decomposition must get right:
   a primary output that also feeds a gate (node 4), a node read on two
   pins of one gate (input c into node 5, which makes c a root), branch
   faults on a root gate (node 6) and on a non-root one (node 5), and a
   chain whose fanout never reaches an output (7 -> 8). *)
let test_bdd_region_shapes () =
  let open Rt_circuit.Gate in
  let c =
    Netlist.make
      ~kinds:[| Input; Input; Input; Input; And; Or; Nand; Not; And |]
      ~fanins:
        [| [||]; [||]; [||]; [||]; [| 0; 1 |]; [| 2; 2 |]; [| 4; 5; 3 |]; [| 3 |]; [| 7; 0 |] |]
      ~names:[| "a"; "b"; "c"; "d"; "ab"; "cc"; "y"; "nd"; "dead" |]
      ~output_list:[ 4; 6 ]
  in
  let root = Rt_circuit.Cone.ffr_roots c in
  check Alcotest.(list int) "region roots" [ 0; 4; 2; 3; 4; 6; 6; 8; 8 ] (Array.to_list root);
  let faults = every_site_fault c in
  let rng = Rt_util.Rng.create 5 in
  let xs = Array.make 4 0.5 :: random_points rng 4 3 in
  check Alcotest.string "engine equals full rebuild" "" (engine_vs_reference c faults xs);
  (* The rebuild itself against enumeration, at the uniform point. *)
  Array.iter
    (fun f ->
      let count = ref 0 in
      for v = 0 to 15 do
        let pattern = Array.init 4 (fun i -> (v lsr i) land 1 = 1) in
        if Rt_sim.Fault_sim.detects c f pattern then incr count
      done;
      let p, _ = reference_detection c f (Array.make 4 0.5) in
      check (Alcotest.float 0.0) (Rt_fault.Fault.to_string c f) (Float.of_int !count /. 16.0) p)
    faults;
  let o = Detect.make (Detect.Bdd_exact { node_limit = 10_000 }) c faults in
  Array.iteri
    (fun i f ->
      match f.Rt_fault.Fault.site with
      | Rt_fault.Fault.Stem (7 | 8) | Rt_fault.Fault.Branch ((7 | 8), _) ->
        check Alcotest.bool (Rt_fault.Fault.to_string c f ^ " redundant") true
          (Oracle.proven_redundant o).(i)
      | Rt_fault.Fault.Stem _ | Rt_fault.Fault.Branch _ -> ())
    faults

(* --- Test_length ------------------------------------------------------------------ *)

let test_required_single_fault () =
  (* One fault with p: N = ln(1-c)/ln(1-p). *)
  let n = Test_length.required ~confidence:0.95 [| 0.01 |] in
  let expect = Float.log 0.05 /. Float.log 0.99 in
  if Float.abs (n -. expect) > 2.0 then Alcotest.failf "N = %.1f expected %.1f" n expect

let test_required_confidence_inverse () =
  let pfs = [| 0.001; 0.01; 0.3 |] in
  let n = Test_length.required ~confidence:0.9 pfs in
  let c_at = Test_length.confidence ~n pfs in
  check Alcotest.bool "confidence met at N" true (c_at >= 0.9);
  let c_before = Test_length.confidence ~n:(n -. 10.0) pfs in
  check Alcotest.bool "not met just before N" true (c_before < 0.9)

let test_required_infinite () =
  check Alcotest.bool "undetectable fault" true
    (Float.is_finite (Test_length.required [| 0.0; 0.5 |]) = false)

let test_savir_bardell_upper_bound () =
  let pfs = [| 0.001; 0.002; 0.5; 0.9 |] in
  let exact = Test_length.required ~confidence:0.95 pfs in
  let bound = Test_length.savir_bardell_bound ~confidence:0.95 pfs in
  check Alcotest.bool "bound dominates" true (bound >= exact -. 1.0)

let test_hardest () =
  let pfs = [| 0.5; 0.001; 0.3; 0.0001 |] in
  check Alcotest.(array int) "two hardest" [| 3; 1 |] (Test_length.hardest pfs ~k:2)

let () =
  let q = QCheck_alcotest.to_alcotest ~long:false in
  Alcotest.run "rt_testability"
    [ ( "signal-prob",
        [ Alcotest.test_case "independence exact on trees" `Quick test_independence_exact_on_trees;
          Alcotest.test_case "reconvergence error measured" `Quick
            test_max_error_positive_on_reconvergent;
          Alcotest.test_case "conditioning recovers exactness" `Quick
            test_conditioned_exact_when_covering;
          q conditioned_improves_qcheck ] );
      ( "observability",
        [ Alcotest.test_case "range and outputs" `Quick test_observability_range_and_outputs;
          Alcotest.test_case "pin sensitization" `Quick test_pin_sensitization;
          Alcotest.test_case "reader on two pins" `Quick test_reader_on_two_pins;
          q kernels_bit_identical_qcheck ] );
      ( "detect-oracles",
        [ Alcotest.test_case "cop exact on single AND" `Quick test_cop_exact_on_single_and;
          q oracle_agreement_qcheck;
          q subset_matches_gather_qcheck;
          q jobs_oracle_agreement_qcheck;
          q cofactor_matches_two_subsets_qcheck;
          q cofactor_affinity_qcheck;
          q compiled_walk_qcheck;
          q damage_cone_covers_changes_qcheck;
          Alcotest.test_case "s1 obs cone total" `Quick test_s1_obs_cone_total;
          Alcotest.test_case "cop cofactor_pair allocation bounded" `Quick
            test_cop_cofactor_allocation;
          Alcotest.test_case "stafan close on trees" `Quick test_stafan_close_to_exact_on_tree;
          Alcotest.test_case "proven redundant" `Quick test_proven_redundant;
          Alcotest.test_case "bdd generations pinned on s1" `Quick test_bdd_generations_pinned;
          q bdd_regions_match_rebuild_qcheck;
          Alcotest.test_case "bdd region shapes" `Quick test_bdd_region_shapes;
          Alcotest.test_case "bdd nand-expanded xor" `Quick test_bdd_nand_xor;
          Alcotest.test_case "bdd observability builds equal" `Quick test_obs_builds_equal;
          q sens_cut_covers_changes_qcheck ] );
      ( "test-length",
        [ Alcotest.test_case "single fault" `Quick test_required_single_fault;
          Alcotest.test_case "confidence inverse" `Quick test_required_confidence_inverse;
          Alcotest.test_case "infinite" `Quick test_required_infinite;
          Alcotest.test_case "savir-bardell bound" `Quick test_savir_bardell_upper_bound;
          Alcotest.test_case "hardest" `Quick test_hardest ] ) ]
