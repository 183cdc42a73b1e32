module Netlist = Rt_circuit.Netlist
module Generators = Rt_circuit.Generators
module Fault = Rt_fault.Fault
module Oracle = Rt_testability.Oracle
module Optimize = Rt_optprob.Optimize
module Pipeline = Rt_pipeline
module Pconfig = Rt_pipeline.Config

type table = {
  id : string;
  title : string;
  header : string list;
  rows : string list list;
  notes : string list;
}

let print_table ppf t =
  Format.fprintf ppf "@.== %s: %s ==@." t.id t.title;
  let widths = Array.make (List.length t.header) 0 in
  let measure row = List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row in
  measure t.header;
  List.iter measure t.rows;
  let print_row row =
    List.iteri
      (fun i cell -> Format.fprintf ppf "%s%s  " cell (String.make (widths.(i) - String.length cell) ' '))
      row;
    Format.fprintf ppf "@."
  in
  print_row t.header;
  print_row (List.mapi (fun i _ -> String.make widths.(i) '-') t.header);
  List.iter print_row t.rows;
  List.iter (fun n -> Format.fprintf ppf "  note: %s@." n) t.notes

let fmt_n n =
  if Float.is_finite n then Printf.sprintf "%.1e" n else "inf"

let fmt_pct p = Printf.sprintf "%.1f%%" (100.0 *. p)

(* --- Shared pipeline contexts -------------------------------------------- *)

let confidence = 0.95

(* Paper Table 1 reference values. *)
let paper_t1 =
  [ ("s1", 5.6e8); ("s2", 2.0e11); ("c432ish", 2.5e3); ("c499ish", 1.9e3); ("c880ish", 3.7e4);
    ("c1355ish", 2.2e6); ("c1908ish", 6.2e4); ("c2670ish", 1.1e7); ("c3540ish", 2.3e6);
    ("c5315ish", 5.3e4); ("c6288ish", 1.9e3); ("c7552ish", 4.9e11) ]

(* Hard suite with the paper's simulation pattern counts. *)
let hard_specs =
  [ ("s1", 12_000); ("s2", 12_000); ("c2670ish", 4_000); ("c7552ish", 4_096) ]

let paper_t2 = [ ("s1", 80.7); ("s2", 77.2); ("c2670ish", 88.0); ("c7552ish", 93.9) ]
let paper_t3 = [ ("s1", 3.5e4); ("s2", 4.0e4); ("c2670ish", 6.9e4); ("c7552ish", 1.2e5) ]
let paper_t4 = [ ("s1", 99.7); ("s2", 99.7); ("c2670ish", 99.7); ("c7552ish", 98.9) ]
let paper_t5 = [ ("s1", 300.0); ("s2", 600.0); ("c2670ish", 1200.0); ("c7552ish", 2000.0) ]

(* Every experiment pulls its circuit, fault list, exact oracle and
   optimization out of one Rt_pipeline context per circuit; the context
   memoises the stages, so the Hashtbl below only caches the contexts
   themselves.  Full mode scales S2 back up to the paper's divider width
   and raises the sweep budget — a different config, hence the reset. *)
let full_mode = ref false
let ctx_cache : (string, Pipeline.t) Hashtbl.t = Hashtbl.create 16
let detectable_cache : (string, bool array) Hashtbl.t = Hashtbl.create 16
let opt_cache : (string * bool, Optimize.report * float) Hashtbl.t = Hashtbl.create 16

let set_full full =
  if full <> !full_mode then begin
    full_mode := full;
    Hashtbl.reset ctx_cache;
    Hashtbl.reset detectable_cache
  end

(* The table-driven base config: exact BDD analysis plus the optimizer
   budget shared by T3/T4/T5/F2/A1.  Netlist optimization is pinned off
   in every experiment config: the paper's numbers were computed on the
   circuits as defined, and the tables must not shift with OPTPROB_OPT.
   The objective is pinned to [single] for the same reason: the paper's
   tables are single-detect, whatever OPTPROB_OBJECTIVE says. *)
let base_config name =
  let circuit = if name = "s2" && !full_mode then "s2:20" else name in
  Pconfig.exn
    (Pconfig.make ~engine:"bdd:2000000" ~confidence ~alpha:0.005 ~nf_min:256 ~objective:"single"
       ~sweeps:(if !full_mode then 16 else 12)
       ~quantize:(Optimize.Grid 0.05) ~opt_passes:[] ~circuit ())

let ctx name =
  match Hashtbl.find_opt ctx_cache name with
  | Some t -> t
  | None ->
    let t = Pipeline.create (base_config name) in
    Hashtbl.add ctx_cache name t;
    t

let circuit name = Pipeline.circuit (ctx name)
let faults name = Pipeline.fault_list (ctx name)
let oracle name = Pipeline.oracle (ctx name)

(* Detectable-fault mask: faults proven redundant by the exact engine are
   excluded (the paper reports coverage only over detectable faults);
   non-exact leftovers get a PODEM attempt. *)
let detectable_mask name =
  match Hashtbl.find_opt detectable_cache name with
  | Some m -> m
  | None ->
    let o = oracle name in
    let red = Oracle.proven_redundant o in
    let exact = Oracle.exact_mask o in
    let fs = faults name in
    let c = circuit name in
    (* Cheap pre-filter: fault simulation under several distributions
       (uniform plus both extremes, which catch equality-chain faults)
       proves most faults detectable; only the simulation-resistant,
       non-exact tail needs a PODEM verdict.  An aborted PODEM counts as
       detectable — only proofs exclude a fault, as in the paper. *)
    let n_inputs = Array.length (Netlist.inputs c) in
    let sim_detected = Array.make (Array.length fs) false in
    List.iter
      (fun (seed, w) ->
        let rng = Rt_util.Rng.create seed in
        let source = Rt_sim.Pattern.weighted rng (Array.make n_inputs w) in
        let sim = Rt_sim.Fault_sim.simulate ~drop:true c fs ~source ~n_patterns:2_048 in
        Array.iteri
          (fun i fd -> if fd >= 0 then sim_detected.(i) <- true)
          sim.Rt_sim.Fault_sim.first_detect)
      [ (99, 0.5); (101, 0.9); (103, 0.1) ];
    let mask =
      Array.mapi
        (fun i f ->
          if red.(i) then false
          else if exact.(i) then true
          else if sim_detected.(i) then true
          else begin
            match Rt_atpg.Podem.generate ~backtrack_limit:300 c f with
            | Rt_atpg.Podem.Redundant, _ -> false
            | (Rt_atpg.Podem.Test _ | Rt_atpg.Podem.Aborted), _ -> true
          end)
        fs
    in
    Hashtbl.add detectable_cache name mask;
    mask

let optimized name ~full =
  match Hashtbl.find_opt opt_cache (name, full) with
  | Some r -> r
  | None ->
    let t = ctx name in
    (* Force the upstream stages first so the timer brackets exactly the
       OPTIMIZE step, as T5 reports it. *)
    ignore (Pipeline.normalized t);
    let t0 = Rt_util.Stats.timer_start () in
    let report = (Pipeline.optimized t).Pipeline.value.Pipeline.opt_report in
    let seconds = Rt_util.Stats.timer_elapsed t0 in
    Hashtbl.add opt_cache (name, full) (report, seconds);
    (report, seconds)

let required_at name weights =
  let pf = Oracle.probs (oracle name) weights in
  let det = detectable_mask name in
  let pf_det = pf |> Array.to_list |> List.filteri (fun i _ -> det.(i)) |> Array.of_list in
  (Rt_optprob.Normalize.run ~confidence pf_det).Rt_optprob.Normalize.n

let coverage_at name weights ~n_patterns ~seed =
  let c = circuit name in
  let fs = faults name in
  let det = detectable_mask name in
  let rng = Rt_util.Rng.create seed in
  let source = Rt_sim.Pattern.weighted rng weights in
  let stats = Rt_sim.Fault_sim.simulate ~drop:true c fs ~source ~n_patterns in
  let total = ref 0 and hit = ref 0 in
  Array.iteri
    (fun i fd ->
      if det.(i) then begin
        incr total;
        if fd >= 0 then incr hit
      end)
    stats.Rt_sim.Fault_sim.first_detect;
  if !total = 0 then 1.0 else Float.of_int !hit /. Float.of_int !total

let uniform name = Array.make (Array.length (Netlist.inputs (circuit name))) 0.5

(* How many of the circuit's fault probabilities the oracle computes
   exactly, and how many faults there are. *)
let exact_count name =
  let exact = Oracle.exact_mask (oracle name) in
  (Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 exact, Array.length exact)

let fmt_exact (k, total) = Printf.sprintf "%d/%d" k total

(* --- Tables -------------------------------------------------------------- *)

let t1_required_length_conventional ?(full = false) () =
  set_full full;
  let rows =
    List.map
      (fun (name, _) ->
        let c = circuit name in
        let star = if List.mem_assoc name paper_t3 then "*" else " " in
        let n = required_at name (uniform name) in
        let paper = List.assoc name paper_t1 in
        [ star ^ name;
          string_of_int (Array.length (Netlist.inputs c));
          string_of_int (Netlist.gate_count c);
          string_of_int (Array.length (faults name));
          fmt_exact (exact_count name);
          fmt_n n;
          fmt_n paper ])
      Generators.paper_suite
  in
  let estimated =
    List.filter_map
      (fun (name, _) ->
        let k, total = exact_count name in
        if k < total then Some (Printf.sprintf "%s (%d/%d)" name k total) else None)
      Generators.paper_suite
  in
  { id = "T1";
    title = "necessary test lengths, conventional random test (X = 0.5)";
    header = [ "circuit"; "inputs"; "gates"; "faults"; "exact"; "N required"; "paper N" ];
    rows;
    notes =
      [ "confidence target 0.95; detection probabilities from the exact BDD engine";
        (if estimated = [] then "every row is fully exact"
         else
           "COP estimates for the faults whose BDDs exceed the node limit in "
           ^ String.concat ", " estimated);
        "* = random-pattern-resistant circuits (the paper's starred rows)";
        "s2 runs as a 16-bit divider (hardest flag fault 4^-16 => N ~ 1e10); full \
         mode widens it to 20 bits, matching the paper's 2e11 magnitude" ] }

let t2_coverage_conventional ?(full = false) () =
  set_full full;
  let rows =
    List.map
      (fun (name, n_patterns) ->
        let cov = coverage_at name (uniform name) ~n_patterns ~seed:2024 in
        [ name; string_of_int n_patterns; fmt_pct cov;
          Printf.sprintf "%.1f%%" (List.assoc name paper_t2) ])
      hard_specs
  in
  { id = "T2";
    title = "fault coverage, conventional random patterns";
    header = [ "circuit"; "patterns"; "coverage"; "paper" ];
    rows;
    notes = [ "coverage over detectable faults only (redundancies proven and excluded)" ] }

let t3_required_length_optimized ?(full = false) () =
  set_full full;
  let rows =
    List.map
      (fun (name, _) ->
        let report, _ = optimized name ~full in
        [ name;
          fmt_exact (exact_count name);
          fmt_n report.Optimize.n_initial;
          fmt_n report.Optimize.n_final;
          Printf.sprintf "x%.0f" (Optimize.improvement report);
          fmt_n (List.assoc name paper_t3) ])
      hard_specs
  in
  { id = "T3";
    title = "necessary test lengths, optimized random test";
    header = [ "circuit"; "exact"; "N conventional"; "N optimized"; "gain"; "paper N opt" ];
    rows;
    notes = [ "weights quantized to the paper's 0.05 grid before evaluation" ] }

let t4_coverage_optimized ?(full = false) () =
  set_full full;
  let rows =
    List.map
      (fun (name, n_patterns) ->
        let report, _ = optimized name ~full in
        let cov = coverage_at name report.Optimize.weights ~n_patterns ~seed:2024 in
        [ name; string_of_int n_patterns; fmt_pct cov;
          Printf.sprintf "%.1f%%" (List.assoc name paper_t4) ])
      hard_specs
  in
  { id = "T4";
    title = "fault coverage, optimized random patterns";
    header = [ "circuit"; "patterns"; "coverage"; "paper" ];
    rows;
    notes = [] }

let t5_cpu_time ?(full = false) () =
  set_full full;
  let rows =
    List.map
      (fun (name, _) ->
        let _, seconds = optimized name ~full in
        [ name; Printf.sprintf "%.1fs" seconds;
          Printf.sprintf "%.0fs" (List.assoc name paper_t5) ])
      hard_specs
  in
  (* §5.2: optimization + fault simulation vs deterministic TPG on S1. *)
  let name = "s1" in
  let report, opt_s = optimized name ~full in
  let t0 = Rt_util.Stats.timer_start () in
  let _ =
    coverage_at name report.Optimize.weights ~n_patterns:12_000 ~seed:7
  in
  let fsim_s = Rt_util.Stats.timer_elapsed t0 in
  let tpg = Rt_atpg.Tpg.generate (circuit name) (faults name) in
  let extra =
    [ [ "s1 optimize+fsim"; Printf.sprintf "%.1fs" (opt_s +. fsim_s); "-" ];
      [ "s1 podem tpg"; Printf.sprintf "%.1fs" tpg.Rt_atpg.Tpg.seconds; "-" ] ]
  in
  { id = "T5";
    title = "CPU time of the optimizing procedure";
    header = [ "circuit"; "seconds (this host)"; "paper (2.5 MIPS)" ];
    rows = rows @ extra;
    notes =
      [ "paper numbers are from a SIEMENS 7561 (~2.5 MIPS); compare ratios, not absolutes";
        "the last two rows reproduce the §5.2 claim that optimize+simulate is \
         competitive with deterministic TPG" ] }

let f1_s1_structure () =
  let c = circuit "s1" in
  let stats = Format.asprintf "%t" (fun ppf -> Netlist.stats c ppf) in
  let bench = Rt_circuit.Bench_format.to_string c in
  let digest = Digest.to_hex (Digest.string bench) in
  { id = "F1";
    title = "circuit S1: 24-bit comparator from six SN7485-style slices (paper Fig. 1)";
    header = [ "property"; "value" ];
    rows =
      [ [ "structure"; stats ];
        [ "bench lines"; string_of_int (List.length (String.split_on_char '\n' bench)) ];
        [ "bench md5"; digest ];
        [ "outputs"; "a_lt_b a_eq_b a_gt_b" ] ];
    notes = [ "dump the netlist with: optprob generate s1 -o s1.bench" ] }

let f2_coverage_curve ?(full = false) () =
  set_full full;
  let name = "s1" in
  let c = circuit name in
  let fs = faults name in
  let det = detectable_mask name in
  let report, _ = optimized name ~full in
  let n_patterns = 12_000 in
  let run weights seed =
    let rng = Rt_util.Rng.create seed in
    let source = Rt_sim.Pattern.weighted rng weights in
    Rt_sim.Fault_sim.simulate ~drop:true c fs ~source ~n_patterns
  in
  let s_conv = run (uniform name) 2024 in
  let s_opt = run report.Optimize.weights 2024 in
  let points = Rt_util.Stats.geometric_steps ~lo:16 ~hi:n_patterns ~per_decade:4 in
  let cov stats k =
    let total = ref 0 and hit = ref 0 in
    Array.iteri
      (fun i fd ->
        if det.(i) then begin
          incr total;
          if fd >= 0 && fd < k then incr hit
        end)
      stats.Rt_sim.Fault_sim.first_detect;
    Float.of_int !hit /. Float.of_int (max 1 !total)
  in
  let rows =
    List.map
      (fun k -> [ string_of_int k; fmt_pct (cov s_conv k); fmt_pct (cov s_opt k) ])
      points
  in
  { id = "F2";
    title = "fault coverage vs pattern count on S1 (paper Fig. 2)";
    header = [ "patterns"; "conventional"; "optimized" ];
    rows;
    notes = [ "the paper's figure shows the same crossover: optimized patterns reach \
               ~100% within 10^4 patterns while conventional saturates far below" ] }

let a1_weight_listing ?(full = false) () =
  set_full full;
  let listing name =
    let report, _ = optimized name ~full in
    let c = circuit name in
    let txt = Format.asprintf "%a" (Rt_optprob.Weights_io.pp c) report.Optimize.weights in
    String.split_on_char '\n' txt
    |> List.filter (fun s -> String.trim s <> "")
    |> List.map (fun line -> [ name; line ])
  in
  { id = "A1";
    title = "optimized input probabilities (paper appendix, 0.05 grid)";
    header = [ "circuit"; "input(s)  probability" ];
    rows = listing "s1" @ listing "c7552ish";
    notes = [ "machine-readable files: optprob optimize <circuit> -o weights.txt" ] }

let x2_partitioning () =
  let t =
    Pipeline.create
      (Pconfig.exn
         (Pconfig.make ~engine:"bdd:500000" ~confidence ~objective:"single" ~opt_passes:[]
            ~circuit:"antagonist" ()))
  in
  let sp = Rt_optprob.Partition.split (Pipeline.oracle t) in
  let open Rt_optprob.Partition in
  let rows =
    [ [ "single distribution"; fmt_n sp.n_single ];
      [ "partitions"; string_of_int (Array.length sp.groups) ] ]
    @ (Array.to_list
         (Array.mapi
            (fun i n ->
              [ Printf.sprintf "part %d (w0=%.2f)" i sp.weights.(i).(0); fmt_n n ])
            sp.n_parts))
    @ [ [ "partitioned total"; fmt_n sp.n_total ];
        [ "gain"; Printf.sprintf "x%.0f" (sp.n_single /. sp.n_total) ] ]
  in
  { id = "X2";
    title = "fault-set partitioning on the pathological antagonist circuit (§5.3)";
    header = [ "quantity"; "test length" ];
    rows;
    notes =
      [ "wide AND and wide NOR over the same inputs: no single distribution serves \
         both; the partitioned test the paper proposes (but did not implement) does" ] }

let x3_convexity_scan () =
  let name = "s1" in
  let o = oracle name in
  let x = uniform name in
  let norm = Rt_optprob.Normalize.run ~confidence (Oracle.probs o x) in
  let n = norm.Rt_optprob.Normalize.n in
  let hard = Rt_optprob.Normalize.hard_indices norm in
  let gather pf = Array.map (fun i -> pf.(i)) hard in
  let x' = Array.copy x in
  x'.(0) <- 0.0;
  let p0 = gather (Oracle.probs o x') in
  x'.(0) <- 1.0;
  let p1 = gather (Oracle.probs o x') in
  let ys = List.init 11 (fun i -> 0.05 +. (0.09 *. Float.of_int i)) in
  let js = List.map (fun y -> Rt_optprob.Objective.value_along ~n ~p0 ~p1 y) ys in
  (* Convexity check: second differences non-negative. *)
  let rec second_diffs = function
    | a :: (b :: c :: _ as rest) -> (a +. c -. (2.0 *. b)) :: second_diffs rest
    | _ -> []
  in
  let convex = List.for_all (fun d -> d >= -1e-9) (second_diffs js) in
  let rows =
    List.map2 (fun y j -> [ Printf.sprintf "%.2f" y; Printf.sprintf "%.4f" j ]) ys js
    @ [ [ "convex?"; string_of_bool convex ] ]
  in
  { id = "X3";
    title = "objective along one coordinate (J_N(X, y|a0) on S1): strictly convex";
    header = [ "y"; "J_N" ];
    rows;
    notes = [ "Lemma 3 of the paper; the global problem is still multi-extremal (§3.1)" ] }

let x4_engine_ablation ?(full = false) () =
  set_full full;
  let exact_oracle = oracle "s1" in
  let rows =
    List.map
      (fun (label, engine) ->
        (* One fresh pipeline per engine, same budget; the timer brackets
           the OPTIMIZE stage only. *)
        let t =
          Pipeline.create
            (Pconfig.exn
               (Pconfig.make ~engine ~confidence ~sweeps:8 ~nf_min:256 ~objective:"single"
                  ~opt_passes:[] ~circuit:"s1" ()))
        in
        ignore (Pipeline.normalized t);
        let t0 = Rt_util.Stats.timer_start () in
        let r = (Pipeline.optimized t).Pipeline.value.Pipeline.opt_report in
        let seconds = Rt_util.Stats.timer_elapsed t0 in
        (* Score the weights with the exact engine regardless of which
           engine produced them. *)
        let pf = Oracle.probs exact_oracle r.Optimize.weights in
        let n_true = (Rt_optprob.Normalize.run ~confidence pf).Rt_optprob.Normalize.n in
        [ label; fmt_n n_true; Printf.sprintf "%.1fs" seconds ])
      [ ("cop (PROTEST-style estimate)", "cop");
        ("conditioned (PREDICT-style)", "cond:6");
        ("bdd (exact)", "bdd:2000000");
        ("stafan (counting)", "stafan:8192");
        ("monte-carlo", "mc:8192") ]
  in
  { id = "X4";
    title = "ANALYSIS engines are interchangeable (optimized S1 scored by the exact engine)";
    header = [ "engine"; "true N at its weights"; "optimize time" ];
    rows;
    notes =
      [ "the paper: 'with slight modifications PREDICT or STAFAN will presumably work \
         as well' - analytic estimators land within the same order as exact analysis";
        "monte-carlo fails by design: sampling cannot resolve probabilities below \
         ~1/patterns, so the hardest faults are reported as 0 and drop out of the \
         objective - an ANALYSIS engine must resolve p_f well below 1/N" ] }

let x5_quantization_ablation ?(full = false) () =
  set_full full;
  let exact_oracle = oracle "s1" in
  let score w =
    let pf = Oracle.probs exact_oracle w in
    (Rt_optprob.Normalize.run ~confidence pf).Rt_optprob.Normalize.n
  in
  let t =
    Pipeline.create
      (Pconfig.exn
         (Pconfig.make ~engine:"bdd:2000000" ~confidence ~sweeps:12
            ~quantize:Optimize.No_quantization ~objective:"single" ~opt_passes:[]
            ~circuit:"s1" ()))
  in
  let raw = (Pipeline.optimized t).Pipeline.value.Pipeline.opt_report in
  let quantised q = Optimize.apply_quantization q raw.Optimize.weights in
  let rows =
    [ [ "unquantised"; fmt_n (score raw.Optimize.weights) ];
      [ "grid 0.05 (paper appendix)"; fmt_n (score (quantised (Optimize.Grid 0.05))) ];
      [ "dyadic k/16 (4-bit network)"; fmt_n (score (quantised (Optimize.Dyadic 4))) ];
      [ "dyadic k/8 (3-bit network)"; fmt_n (score (quantised (Optimize.Dyadic 3))) ];
      [ "dyadic k/4 (2-bit network)"; fmt_n (score (quantised (Optimize.Dyadic 2))) ] ]
  in
  { id = "X5";
    title = "cost of weight realisability on S1 (same optimum, coarser grids)";
    header = [ "grid"; "required N" ];
    rows;
    notes = [ "the dyadic rows round to Optimize.Dyadic grids k/2^b, the weights a b-bit network realises" ] }

let x6_jitter_ablation ?(full = false) () =
  set_full full;
  (* A pure guarded equality detector: every hard fault needs operand
     pairs to agree, and with X exactly 0.5 every coordinate derivative of
     those faults vanishes (the saddle of §3.1). *)
  let c =
    let b = Rt_circuit.Builder.create () in
    let xs = Rt_circuit.Builder.inputs b "x" 12 in
    let ys = Rt_circuit.Builder.inputs b "y" 12 in
    let en = Rt_circuit.Builder.inputs b "en" 2 in
    let eq = Generators.equality_comparator b xs ys in
    let armed = Rt_circuit.Builder.and2 b en.(0) en.(1) in
    Rt_circuit.Builder.output b ~name:"match" (Rt_circuit.Builder.and2 b eq armed);
    Rt_circuit.Builder.output b ~name:"parity" (Generators.parity b xs);
    Rt_circuit.Builder.finalize b
  in
  let run jitter =
    let t =
      Pipeline.create
        (Pconfig.exn
           (Pconfig.of_netlist ~engine:"bdd:500000" ~confidence ~sweeps:10
              ~start_jitter:jitter ~objective:"single" ~opt_passes:[]
              ~name:"guarded-eq" c))
    in
    (Pipeline.optimized t).Pipeline.value.Pipeline.opt_report
  in
  let rows =
    List.map
      (fun jitter ->
        let r = run jitter in
        [ Printf.sprintf "%.2f" jitter;
          fmt_n r.Optimize.n_final;
          string_of_int r.Optimize.sweeps_run ])
      [ 0.0; 0.02; 0.06; 0.12 ]
  in
  { id = "X6";
    title = "start-jitter ablation on a guarded equality detector (the all-0.5 saddle)";
    header = [ "jitter"; "N optimized"; "sweeps" ];
    rows;
    notes =
      [ "equality comparators make X = 0.5 a stationary point of every coordinate: \
         with jitter 0.00 the sweep cannot separate the operand pair weights" ] }

let ids = [ "t1"; "t2"; "t3"; "t4"; "t5"; "f1"; "f2"; "a1"; "x2"; "x3"; "x4"; "x5"; "x6" ]

let by_id id =
  match String.lowercase_ascii id with
  | "t1" -> Some t1_required_length_conventional
  | "t2" -> Some t2_coverage_conventional
  | "t3" -> Some t3_required_length_optimized
  | "t4" -> Some t4_coverage_optimized
  | "t5" -> Some t5_cpu_time
  | "f1" -> Some (fun ?full () -> ignore full; f1_s1_structure ())
  | "f2" -> Some f2_coverage_curve
  | "a1" -> Some a1_weight_listing
  | "x2" -> Some (fun ?full () -> ignore full; x2_partitioning ())
  | "x3" -> Some (fun ?full () -> ignore full; x3_convexity_scan ())
  | "x4" -> Some x4_engine_ablation
  | "x5" -> Some x5_quantization_ablation
  | "x6" -> Some x6_jitter_ablation
  | _ -> None
