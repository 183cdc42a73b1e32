(* The typed stage graph: Loaded -> Opt_netlist -> Faults -> Analysis ->
   Normalized -> Optimized -> Validated -> Report, each with explicit
   inputs, a pure [run] and a serialised, content-addressed artifact (see
   Store).

   A context memoises stage results in memory and, when the config has a
   work_dir, consults the artifact store first — so a run resumed after a
   crash, or re-run with only downstream options changed, skips straight
   past the untouched prefix.  Every stage records
   [pipeline.stage.<name>.{run,cache_hit}] counters and a
   [pipeline.<name>] span so `obs diff` can attribute a regression to a
   stage. *)

module Detect = Rt_testability.Detect
module Oracle = Rt_testability.Oracle
module Normalize = Rt_optprob.Normalize
module Optimize = Rt_optprob.Optimize

type 'a staged = { value : 'a; digest : string; from_cache : bool }

type opt_netlist = {
  on_netlist : Rt_circuit.Netlist.t;
  on_remap : Rt_circuit.Passes.Remap.t;
  on_stats : Rt_circuit.Passes.stats;
}

type analysis = {
  pf : float array;
  a_weights : float array;
  proven_redundant : bool array;
  exact_mask : bool array;
  engine_desc : string;
}

type normalized = {
  n_required : float;
  nf : int;
  det_idx : int array;
  hard : int array;
  n_undetectable : int;
}

type optimized = {
  opt_report : Optimize.report;
      (* the single-stage design; for a two-stage objective this is stage 1 *)
  opt_two_stage : Optimize.two_stage_report option;
}

(* The weight vector the design actually deploys (stage-2 weights for a
   two-stage design). *)
let opt_weights o =
  match o.opt_two_stage with
  | Some ts -> ts.Optimize.ts_weights
  | None -> o.opt_report.Optimize.weights

type validated = {
  v_weights : float array;
  first_detect : int array;
  detect_count : int array;
  patterns_run : int;
  v_seed : int;
  coverage : float;
}

type report = {
  r_circuit : string;
  r_stats : string;  (* of the netlist the engines actually ran on *)
  r_raw_stats : string;  (* of the loaded netlist, pre-optimization *)
  r_opt_key : string;
  r_nodes_removed : int;
  r_engine : string;
  r_inputs : int;
  r_faults : int;
  r_redundant : int;
  r_n_conventional : float;
  r_objective : string;
  r_opt : Optimize.report;
  r_two_stage : Optimize.two_stage_report option;
  r_coverage : float;
  r_patterns : int;
  r_seed : int;
}

type t = {
  config : Config.t;
  store : Store.t option;
  rev : string;  (** git revision in every stage key, read once here *)
  mutable s_loaded : Rt_circuit.Netlist.t staged option;
  mutable s_opt : opt_netlist staged option;
  mutable s_faults : Rt_fault.Fault.t array staged option;
  mutable s_oracle : Oracle.t option;
  mutable s_analysis : analysis staged option;
  mutable s_normalized : normalized staged option;
  mutable s_optimized : optimized staged option;
  mutable s_validated : validated staged option;
  mutable s_simulated : validated staged option;
  mutable s_report : report staged option;
}

let create config =
  { config;
    store = Option.map Store.create config.Config.work_dir;
    rev = Rt_obs.Artifact.git_rev ();
    s_loaded = None;
    s_opt = None;
    s_faults = None;
    s_oracle = None;
    s_analysis = None;
    s_normalized = None;
    s_optimized = None;
    s_validated = None;
    s_simulated = None;
    s_report = None }

let config t = t.config

(* --- stage executor --------------------------------------------------------- *)

let exec t ~stage ~parts compute =
  let key = Store.key ~rev:t.rev ~stage ~parts in
  let cached =
    match t.store with
    | Some store -> Store.load store ~stage ~key
    | None -> None
  in
  match cached with
  | Some (value, digest) ->
    Rt_obs.incr (Rt_obs.counter ("pipeline.stage." ^ stage ^ ".cache_hit"));
    ignore (Rt_obs.counter ("pipeline.stage." ^ stage ^ ".run"));
    { value; digest; from_cache = true }
  | None ->
    Rt_obs.incr (Rt_obs.counter ("pipeline.stage." ^ stage ^ ".run"));
    ignore (Rt_obs.counter ("pipeline.stage." ^ stage ^ ".cache_hit"));
    let value = Rt_obs.with_span ~cat:"pipeline" ("pipeline." ^ stage) compute in
    let digest =
      match t.store with
      | Some store -> Store.save store ~stage ~key value
      | None -> "mem:" ^ key
    in
    { value; digest; from_cache = false }

let memo cell set t ~stage ~parts compute =
  match cell t with
  | Some s -> s
  | None ->
    let s = exec t ~stage ~parts compute in
    set t s;
    s

(* --- stages ----------------------------------------------------------------- *)

let loaded t =
  memo
    (fun t -> t.s_loaded)
    (fun t s -> t.s_loaded <- Some s)
    t ~stage:"loaded"
    ~parts:[ Config.circuit_key t.config.Config.circuit ]
    (fun () -> Config.load_circuit t.config.Config.circuit)

let raw_circuit t = (loaded t).value

(* The optimization stage always exists (stable stage count and cache
   behaviour); with [opt_passes = []] the pass driver is the identity and
   the artifact is just the loaded netlist under an "opt=off" key. *)
let opt_netlist t =
  let l = loaded t in
  memo
    (fun t -> t.s_opt)
    (fun t s -> t.s_opt <- Some s)
    t ~stage:"opt_netlist"
    ~parts:[ Config.opt_key t.config; l.digest ]
    (fun () ->
      let passes = Config.resolve_passes t.config in
      let c, remap, stats =
        Rt_circuit.Passes.run ~rounds:t.config.Config.opt_rounds ~passes l.value
      in
      { on_netlist = c; on_remap = remap; on_stats = stats })

let circuit t = (opt_netlist t).value.on_netlist
let remap t = (opt_netlist t).value.on_remap
let opt_stats t = (opt_netlist t).value.on_stats

let faults t =
  let op = opt_netlist t in
  memo
    (fun t -> t.s_faults)
    (fun t s -> t.s_faults <- Some s)
    t ~stage:"faults" ~parts:[ op.digest ]
    (fun () -> Rt_fault.Collapse.collapsed_universe op.value.on_netlist)

let fault_list t = (faults t).value

let oracle t =
  match t.s_oracle with
  | Some o -> o
  | None ->
    let c = circuit t and fs = fault_list t in
    let o = Detect.make ?jobs:t.config.Config.jobs (Config.engine_kind t.config) c fs in
    t.s_oracle <- Some o;
    o

let analysis t =
  let op = opt_netlist t in
  let f = faults t in
  memo
    (fun t -> t.s_analysis)
    (fun t s -> t.s_analysis <- Some s)
    t ~stage:"analysis"
    ~parts:[ t.config.Config.engine; Config.weights_key t.config; op.digest; f.digest ]
    (fun () ->
      let o = oracle t in
      let x = Config.resolve_weights t.config op.value.on_netlist in
      { pf = Oracle.probs o x;
        a_weights = x;
        proven_redundant = Oracle.proven_redundant o;
        exact_mask = Oracle.exact_mask o;
        engine_desc = Oracle.describe o })

let normalized t =
  let a = analysis t in
  memo
    (fun t -> t.s_normalized)
    (fun t s -> t.s_normalized <- Some s)
    t ~stage:"normalized"
    ~parts:
      [ Printf.sprintf "confidence=%h" t.config.Config.confidence;
        "objective=" ^ (Config.objective_instance t.config).Rt_optprob.Objective.key;
        a.digest ]
    (fun () ->
      let { pf; proven_redundant; _ } = a.value in
      let det_idx =
        Array.of_list
          (List.filteri (fun i _ -> not proven_redundant.(i))
             (List.init (Array.length pf) Fun.id))
      in
      let pf_det = Array.map (fun i -> pf.(i)) det_idx in
      let norm =
        Normalize.run
          ~objective:(Config.objective_instance t.config)
          ~confidence:t.config.Config.confidence pf_det
      in
      (* Remap NORMALIZE's indices (into the detectable-filtered array)
         back to fault-array order for downstream consumers. *)
      { n_required = norm.Normalize.n;
        nf = norm.Normalize.nf;
        det_idx;
        hard = Array.map (fun k -> det_idx.(k)) (Normalize.hard_indices norm);
        n_undetectable = Array.length norm.Normalize.undetectable })

let optimized ?progress ?recorder t =
  let n = normalized t in
  memo
    (fun t -> t.s_optimized)
    (fun t s -> t.s_optimized <- Some s)
    t ~stage:"optimized"
    ~parts:[ Config.optimize_key t.config; n.digest ]
    (fun () ->
      let options = Config.optimize_options t.config in
      match Config.objective_kind t.config with
      | Config.Two_stage n1 ->
        (* The stage-1 simulated patterns use the driver's own fixed seed,
           not the config seed: [optimized] must stay seed-independent
           (its key has no seed part; only validated/report depend on the
           config seed). *)
        let ts =
          Optimize.two_stage ~options ?n1 ?jobs:t.config.Config.jobs
            ?block_words:t.config.Config.block_words ?progress ?recorder (oracle t)
        in
        { opt_report = ts.Optimize.ts_stage1; opt_two_stage = Some ts }
      | Config.Single | Config.N_detect _ ->
        { opt_report = Optimize.run ~options ?progress ?recorder (oracle t);
          opt_two_stage = None })

(* Fault-simulate [weights] with the config's seed/patterns/jobs; shared by
   the [validated] stage (optimized weights) and the [simulated] variant
   (the analysis weights, i.e. `optprob simulate`). *)
let fault_simulate t weights =
  let c = circuit t and fs = fault_list t in
  let rng = Rt_util.Rng.create t.config.Config.seed in
  let source = Rt_sim.Pattern.weighted rng weights in
  let stats =
    Rt_sim.Fault_sim.simulate ?jobs:t.config.Config.jobs
      ?block_words:t.config.Config.block_words ~drop:true c fs ~source
      ~n_patterns:t.config.Config.patterns
  in
  let total = Array.length stats.Rt_sim.Fault_sim.first_detect in
  let hit =
    Array.fold_left (fun a fd -> if fd >= 0 then a + 1 else a) 0
      stats.Rt_sim.Fault_sim.first_detect
  in
  { v_weights = weights;
    first_detect = stats.Rt_sim.Fault_sim.first_detect;
    detect_count = stats.Rt_sim.Fault_sim.detect_count;
    patterns_run = stats.Rt_sim.Fault_sim.patterns_run;
    v_seed = t.config.Config.seed;
    coverage = (if total = 0 then 1.0 else Float.of_int hit /. Float.of_int total) }

let sim_parts t ~at upstream_digest =
  [ at;
    Printf.sprintf "seed=%d" t.config.Config.seed;
    Printf.sprintf "patterns=%d" t.config.Config.patterns;
    upstream_digest ]

let validated t =
  let o = optimized t in
  memo
    (fun t -> t.s_validated)
    (fun t s -> t.s_validated <- Some s)
    t ~stage:"validated"
    ~parts:(sim_parts t ~at:"at-optimized" o.digest)
    (fun () -> fault_simulate t (opt_weights o.value))

let simulated t =
  let a = analysis t in
  memo
    (fun t -> t.s_simulated)
    (fun t s -> t.s_simulated <- Some s)
    t ~stage:"validated"
    ~parts:(sim_parts t ~at:"at-analysis" a.digest)
    (fun () -> fault_simulate t a.value.a_weights)

let sim_stats t (v : validated) =
  { Rt_sim.Fault_sim.faults = fault_list t;
    first_detect = v.first_detect;
    detect_count = v.detect_count;
    patterns_run = v.patterns_run }

let report t =
  let l = loaded t in
  let op = opt_netlist t in
  let f = faults t in
  let a = analysis t in
  let n = normalized t in
  let o = optimized t in
  let v = validated t in
  memo
    (fun t -> t.s_report)
    (fun t s -> t.s_report <- Some s)
    t ~stage:"report"
    ~parts:[ l.digest; op.digest; f.digest; a.digest; n.digest; o.digest; v.digest ]
    (fun () ->
      { r_circuit = Config.circuit_name t.config.Config.circuit;
        r_stats =
          Format.asprintf "%t" (fun ppf -> Rt_circuit.Netlist.stats op.value.on_netlist ppf);
        r_raw_stats = Format.asprintf "%t" (fun ppf -> Rt_circuit.Netlist.stats l.value ppf);
        r_opt_key = Config.opt_key t.config;
        r_nodes_removed =
          Rt_circuit.Netlist.size l.value - Rt_circuit.Netlist.size op.value.on_netlist;
        r_engine = a.value.engine_desc;
        r_inputs = Array.length (Rt_circuit.Netlist.inputs l.value);
        r_faults = Array.length f.value;
        r_redundant =
          Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 a.value.proven_redundant;
        r_n_conventional = n.value.n_required;
        r_objective = Config.objective_key t.config;
        r_opt = o.value.opt_report;
        r_two_stage = o.value.opt_two_stage;
        r_coverage = v.value.coverage;
        r_patterns = v.value.patterns_run;
        r_seed = v.value.v_seed })

(* --- whole-graph run -------------------------------------------------------- *)

type outcome = {
  o_report : report staged;
  o_stages : (string * bool) list;  (* stage name, served from cache *)
}

let stage_names =
  [ "loaded"; "opt_netlist"; "faults"; "analysis"; "normalized"; "optimized"; "validated";
    "report" ]

let run ?progress ?recorder t =
  let l = loaded t in
  let op = opt_netlist t in
  let f = faults t in
  let a = analysis t in
  let n = normalized t in
  let o = optimized ?progress ?recorder t in
  let v = validated t in
  let r = report t in
  { o_report = r;
    o_stages =
      [ ("loaded", l.from_cache);
        ("opt_netlist", op.from_cache);
        ("faults", f.from_cache);
        ("analysis", a.from_cache);
        ("normalized", n.from_cache);
        ("optimized", o.from_cache);
        ("validated", v.from_cache);
        ("report", r.from_cache) ] }

let all_cached outcome = List.for_all snd outcome.o_stages

let pp_stages ppf outcome =
  List.iter
    (fun (name, hit) ->
      Format.fprintf ppf "  %-10s %s@." name (if hit then "[cache hit]" else "[run]"))
    outcome.o_stages;
  let hits = List.length (List.filter snd outcome.o_stages) in
  Format.fprintf ppf "  %d/%d stages from cache@." hits (List.length outcome.o_stages)

let pp_report ppf r =
  Format.fprintf ppf "circuit:        %s (%s)@." r.r_circuit r.r_stats;
  if r.r_opt_key <> "opt=off" then
    Format.fprintf ppf "opt:            %s; %d nodes removed (raw: %s)@." r.r_opt_key
      r.r_nodes_removed r.r_raw_stats;
  Format.fprintf ppf "engine:         %s@." r.r_engine;
  Format.fprintf ppf "faults:         %d collapsed, %d proven redundant@." r.r_faults
    r.r_redundant;
  Format.fprintf ppf "N conventional: %s@."
    (if Float.is_finite r.r_n_conventional then Printf.sprintf "%.3e" r.r_n_conventional
     else "infinite");
  if r.r_objective <> "single" then
    Format.fprintf ppf "objective:      %s@." r.r_objective;
  Format.fprintf ppf "N initial:      %.3e@." r.r_opt.Optimize.n_initial;
  Format.fprintf ppf "N optimized:    %.3e  (gain x%.0f)@." r.r_opt.Optimize.n_final
    (Optimize.improvement r.r_opt);
  (match r.r_two_stage with
   | Some ts ->
     Format.fprintf ppf "two-stage:      N1=%d (%d survivors) + N2=%s = %s vs single %.3e@."
       ts.Optimize.ts_n1 ts.Optimize.ts_survivors
       (if Float.is_finite ts.Optimize.ts_n2 then Printf.sprintf "%.3e" ts.Optimize.ts_n2
        else "inf")
       (if Float.is_finite ts.Optimize.ts_total then Printf.sprintf "%.3e" ts.Optimize.ts_total
        else "inf")
       ts.Optimize.ts_single_n
   | None -> ());
  Format.fprintf ppf "validated:      %.2f%% coverage (%d patterns, seed %d)@."
    (100.0 *. r.r_coverage) r.r_patterns r.r_seed
