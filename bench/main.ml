(* Benchmark harness: reproduces every table and figure of the paper
   (Tables 1-5, Fig. 1-2, the appendix weight listings, and the §3/§5.3
   extension experiments), then measures the library's computational
   kernels with Bechamel.

   Usage:
     dune exec bench/main.exe                 quick reproduction + kernels
     dune exec bench/main.exe -- --full       paper-scale reproduction
     dune exec bench/main.exe -- --only t3,f2 selected experiments
     dune exec bench/main.exe -- --no-perf    skip the Bechamel section
     dune exec bench/main.exe -- --json       also write BENCH_optprob.json
                                              (kernel ns/run + per-experiment
                                              wall-clock, machine readable)
     dune exec bench/main.exe -- --registry D also ingest this bench run into
                                              the run registry at D (bare
                                              --registry uses the default
                                              _obs/registry convention) *)

let parse_args () =
  let full = ref (Sys.getenv_opt "OPTPROB_BENCH_FULL" = Some "1") in
  let only = ref None in
  let perf = ref true in
  let json = ref false in
  let registry = ref None in
  let rec go = function
    | [] -> ()
    | "--full" :: rest ->
      full := true;
      go rest
    | "--no-perf" :: rest ->
      perf := false;
      go rest
    | "--json" :: rest ->
      json := true;
      go rest
    | "--only" :: ids :: rest ->
      only := Some (String.split_on_char ',' ids);
      go rest
    | "--registry" :: dir :: rest
      when not (String.length dir >= 2 && String.sub dir 0 2 = "--") ->
      registry := Some dir;
      go rest
    | "--registry" :: rest ->
      registry := Some (Rt_obs_registry.default_dir ());
      go rest
    | _ :: rest -> go rest
  in
  go (List.tl (Array.to_list Sys.argv));
  (!full, !only, !perf, !json, !registry)

(* Runs each experiment individually (so its wall-clock is attributable),
   prints its table, and returns [(id, title, seconds, counters)] in run
   order.  Rt_obs counters are cleared before and snapshotted after each
   experiment, so the JSON records how much work (oracle queries, Newton
   iterations, ppsfp batches, ...) each table cost — not just how long. *)
let run_experiments ~full ~only =
  let ids =
    match only with
    | None -> Rt_repro.Experiments.ids
    | Some ids -> ids
  in
  Rt_obs.set_enabled true;
  let rows =
    List.filter_map
      (fun id ->
        match Rt_repro.Experiments.by_id id with
        | None ->
          Format.eprintf "unknown experiment id: %s@." id;
          None
        | Some f ->
          Rt_obs.clear ();
          let t0 = Rt_util.Stats.timer_start () in
          let table = f ~full () in
          let seconds = Rt_util.Stats.timer_elapsed t0 in
          let counters =
            List.filter (fun (_, v) -> v <> 0) (Rt_obs.counters_snapshot ())
          in
          Rt_repro.Experiments.print_table Format.std_formatter table;
          Some (table.Rt_repro.Experiments.id, table.Rt_repro.Experiments.title, seconds, counters))
      ids
  in
  (* Kernels below measure the disabled path; don't leak telemetry state. *)
  Rt_obs.set_enabled false;
  Rt_obs.clear ();
  rows

(* --- Bechamel kernels ----------------------------------------------------- *)

open Bechamel
open Toolkit

(* s1's comparator cascade rebuilt with Builder folding and pruning off:
   the (0,1,0) constant cascade assignment of slice 0 and the logic it
   implies stay in the netlist — the redundancy the paper notes was
   removed from the real circuits.  [Passes.run] recovers the folded
   form; the PREPARE-sweep kernel pair below prices that recovery. *)
let s1_redundant () =
  let open Rt_circuit in
  let b = Builder.create ~fold:false ~prune:false () in
  let a_bits = Builder.inputs b "a" 24 in
  let b_bits = Builder.inputs b "b" 24 in
  let slice j (lt, eq, gt) =
    let sub arr = Array.sub arr (4 * j) 4 in
    Generators.comparator_slice_7485 b ~a:(sub a_bits) ~b:(sub b_bits) ~lt_in:lt ~eq_in:eq
      ~gt_in:gt
  in
  let rec cascade j acc =
    if j = 6 then acc
    else begin
      let lt, eq, gt = acc in
      cascade (j + 1) (slice j (lt, eq, gt) |> fun (l, e, g) -> (Some l, Some e, Some g))
    end
  in
  let lt, eq, gt = cascade 0 (None, None, None) in
  let get = function Some n -> n | None -> assert false in
  Builder.output b ~name:"a_lt_b" (get lt);
  Builder.output b ~name:"a_eq_b" (get eq);
  Builder.output b ~name:"a_gt_b" (get gt);
  Builder.finalize b

(* Gate-count delta the optimization stage achieves on the redundant s1,
   reported in the JSON next to the kernel timings. *)
type opt_measurement = {
  om_raw_nodes : int;
  om_raw_gates : int;
  om_opt_nodes : int;
  om_opt_gates : int;
}

let measure_opt () =
  let raw = s1_redundant () in
  let opt, _, _ = Rt_circuit.Passes.run raw in
  { om_raw_nodes = Rt_circuit.Netlist.size raw;
    om_raw_gates = Rt_circuit.Netlist.gate_count raw;
    om_opt_nodes = Rt_circuit.Netlist.size opt;
    om_opt_gates = Rt_circuit.Netlist.gate_count opt }

let kernel_tests () =
  (* All kernel inputs (circuits, fault lists, oracles, hard prefixes)
     come out of pipeline stages; the kernels themselves then hammer the
     oracle/simulator APIs directly. *)
  let pctx ?(engine = "cop") circuit =
    Rt_pipeline.create
      (Rt_pipeline.Config.exn (Rt_pipeline.Config.make ~engine ~circuit ()))
  in
  let s1 = pctx "s1" in
  let c = Rt_pipeline.circuit s1 in
  let n_inputs = Array.length (Rt_circuit.Netlist.inputs c) in
  let x = Array.make n_inputs 0.5 in
  let cop = Rt_pipeline.oracle s1 in
  let bdd = Rt_pipeline.oracle (pctx ~engine:"bdd:500000" "s1") in
  let sim = Rt_sim.Logic_sim.create c in
  let rng = Rt_util.Rng.create 1 in
  let source = Rt_sim.Pattern.equiprobable rng ~n_inputs in
  let lfsr = Rt_bist.Lfsr.create ~width:32 1L in
  let mult_ctx = pctx "c6288ish:8" in
  let mult = Rt_pipeline.circuit mult_ctx in
  let mult_faults = Rt_pipeline.fault_list mult_ctx in
  let mult_rng = Rt_util.Rng.create 2 in
  let mult_source =
    Rt_sim.Pattern.equiprobable mult_rng ~n_inputs:(Array.length (Rt_circuit.Netlist.inputs mult))
  in
  (* The PREPARE workload of one optimizer coordinate step: the two
     cofactor queries at x_0, restricted to the hard-fault prefix that the
     NORMALIZE bound search certifies (the paper's z; ~32 of s1's 534
     faults) — full-universe query + gather vs the subset-aware oracle. *)
  let cond_ctx = pctx ~engine:"cond:4" "s1" in
  let cond = Rt_pipeline.oracle cond_ctx in
  let hard = (Rt_pipeline.normalized cond_ctx).Rt_pipeline.value.Rt_pipeline.hard in
  let sweep_full () =
    let gather pf = Array.map (fun i -> pf.(i)) hard in
    x.(0) <- 0.0;
    let pf0 = gather (Rt_testability.Oracle.probs cond x) in
    x.(0) <- 1.0;
    let pf1 = gather (Rt_testability.Oracle.probs cond x) in
    x.(0) <- 0.5;
    ignore (Sys.opaque_identity (pf0, pf1))
  in
  let sweep_subset () =
    x.(0) <- 0.0;
    let pf0 = Rt_testability.Oracle.probs_subset cond hard x in
    x.(0) <- 1.0;
    let pf1 = Rt_testability.Oracle.probs_subset cond hard x in
    x.(0) <- 0.5;
    ignore (Sys.opaque_identity (pf0, pf1))
  in
  (* Same workload with Rt_obs recording on: the gap between this and the
     plain subset-query kernel bounds the telemetry overhead; the gap
     between the plain kernel and the pre-instrumentation baseline bounds
     the disabled-path cost (budget: <2%). *)
  let sweep_subset_telemetry () =
    Rt_obs.set_enabled true;
    sweep_subset ();
    Rt_obs.set_enabled false;
    Rt_obs.clear ()
  in
  (* One full PREPARE pass through the oracle protocol: a fused
     [cofactor_pair] per input (incremental damage-cone re-evaluation from
     a cached base point) vs the two independent subset sweeps per input
     it replaces.  Sweeping every input is the honest unit — a single
     input's damage cone can approach the whole masked region (s1's LSB
     feeds all six slices), but the optimizer always visits all of them,
     and the win comes from the average cone being small. *)
  let cop_plan = Rt_testability.Oracle.plan cop hard in
  let cond_plan = Rt_testability.Oracle.plan cond hard in
  let cofactor_sweep oracle plan xv () =
    for i = 0 to Array.length xv - 1 do
      ignore (Sys.opaque_identity (Rt_testability.Oracle.cofactor_pair oracle plan ~input:i ~x:xv))
    done
  in
  let two_subset_sweep oracle subset xv () =
    for i = 0 to Array.length xv - 1 do
      let x' = Array.copy xv in
      x'.(i) <- 0.0;
      let pf0 = Rt_testability.Oracle.probs_subset oracle subset x' in
      x'.(i) <- 1.0;
      let pf1 = Rt_testability.Oracle.probs_subset oracle subset x' in
      ignore (Sys.opaque_identity (pf0, pf1))
    done
  in
  let cofactor_pair_cond = cofactor_sweep cond cond_plan x in
  let cofactor_pair_cop = cofactor_sweep cop cop_plan x in
  let two_subsets_cop = two_subset_sweep cop hard x in
  let big_ctx = pctx "c2670ish" in
  let big = Rt_pipeline.circuit big_ctx in
  let big_x = Array.make (Array.length (Rt_circuit.Netlist.inputs big)) 0.5 in
  let big_cop = Rt_pipeline.oracle big_ctx in
  let big_hard = (Rt_pipeline.normalized big_ctx).Rt_pipeline.value.Rt_pipeline.hard in
  let big_plan = Rt_testability.Oracle.plan big_cop big_hard in
  let cofactor_pair_big = cofactor_sweep big_cop big_plan big_x in
  let two_subsets_big = two_subset_sweep big_cop big_hard big_x in
  (* Optimized-vs-raw PREPARE sweep: the same redundant s1 netlist
     analysed with the optimization stage off and on.  Each side uses its
     own hard prefix — the point is the end-to-end cost of one optimizer
     coordinate sweep on what the pipeline actually hands the engine. *)
  let redundant = s1_redundant () in
  let rctx opt_passes name =
    Rt_pipeline.create
      (Rt_pipeline.Config.exn
         (Rt_pipeline.Config.of_netlist ~engine:"cop" ~opt_passes ~name redundant))
  in
  let raw_ctx = rctx [] "s1-redundant-raw" in
  let opt_ctx = rctx Rt_circuit.Passes.default_names "s1-redundant-opt" in
  let prep_sweep ctx =
    let oracle = Rt_pipeline.oracle ctx in
    let hard = (Rt_pipeline.normalized ctx).Rt_pipeline.value.Rt_pipeline.hard in
    let xv =
      Array.make (Array.length (Rt_circuit.Netlist.inputs (Rt_pipeline.circuit ctx))) 0.5
    in
    two_subset_sweep oracle hard xv
  in
  let prep_raw = prep_sweep raw_ctx in
  let prep_opt = prep_sweep opt_ctx in
  (* n-detection objective cost: one full PREPARE+MINIMIZE coordinate
     sweep — two subset queries plus a Newton solve per input — under the
     paper's single-detect objective vs the 2-detect Poisson tail.  Same
     circuit, engine and hard prefix on both sides, so the gap is the
     per-term objective evaluation inside MINIMIZE alone. *)
  let s1_norm = (Rt_pipeline.normalized s1).Rt_pipeline.value in
  let objective_sweep objective () =
    for i = 0 to n_inputs - 1 do
      let x' = Array.copy x in
      x'.(i) <- 0.0;
      let p0 = Rt_testability.Oracle.probs_subset cop s1_norm.Rt_pipeline.hard x' in
      x'.(i) <- 1.0;
      let p1 = Rt_testability.Oracle.probs_subset cop s1_norm.Rt_pipeline.hard x' in
      ignore
        (Sys.opaque_identity
           (Rt_optprob.Minimize.newton ~objective ~n:s1_norm.Rt_pipeline.n_required ~p0 ~p1 0.5))
    done
  in
  let prep_single = objective_sweep Rt_optprob.Objective.single in
  let prep_ndetect = objective_sweep (Rt_optprob.Objective.n_detect ~k:2) in
  [ Test.make ~name:"cop analysis (s1, 534 faults)"
      (Staged.stage (fun () -> ignore (Rt_testability.Oracle.probs cop x)));
    Test.make ~name:"exact bdd analysis (s1, 534 faults)"
      (Staged.stage (fun () -> ignore (Rt_testability.Oracle.probs bdd x)));
    Test.make ~name:"optimize sweep (conditioned, s1) full-query"
      (Staged.stage sweep_full);
    Test.make ~name:"optimize sweep (conditioned, s1) subset-query"
      (Staged.stage sweep_subset);
    Test.make ~name:"optimize sweep (conditioned, s1) subset-query telemetry=on"
      (Staged.stage sweep_subset_telemetry);
    Test.make ~name:"cofactor sweep (cop, s1) fused" (Staged.stage cofactor_pair_cop);
    Test.make ~name:"cofactor sweep (cop, s1) 2x subset-query" (Staged.stage two_subsets_cop);
    Test.make ~name:"cofactor sweep (conditioned, s1) fused" (Staged.stage cofactor_pair_cond);
    Test.make ~name:"cofactor sweep (cop, c2670ish) fused" (Staged.stage cofactor_pair_big);
    Test.make ~name:"cofactor sweep (cop, c2670ish) 2x subset-query"
      (Staged.stage two_subsets_big);
    Test.make ~name:"prepare sweep (cop, s1-redundant) raw" (Staged.stage prep_raw);
    Test.make ~name:"prepare sweep (cop, s1-redundant) optimized" (Staged.stage prep_opt);
    Test.make ~name:"prepare+minimize sweep (cop, s1) objective=single"
      (Staged.stage prep_single);
    Test.make ~name:"prepare+minimize sweep (cop, s1) objective=ndetect:2"
      (Staged.stage prep_ndetect);
    Test.make ~name:"logic sim 64 patterns (s1)"
      (Staged.stage (fun () -> Rt_sim.Logic_sim.run sim (source ())));
    Test.make ~name:"ppsfp 256 patterns (8x8 multiplier) jobs=1"
      (Staged.stage (fun () ->
           ignore
             (Rt_sim.Fault_sim.simulate ~jobs:1 ~drop:true mult mult_faults ~source:mult_source
                ~n_patterns:256)));
    Test.make ~name:"ppsfp 256 patterns (8x8 multiplier) jobs=4"
      (Staged.stage (fun () ->
           ignore
             (Rt_sim.Fault_sim.simulate ~jobs:4 ~drop:true mult mult_faults ~source:mult_source
                ~n_patterns:256)));
    (* Width sweep: the same 1024-pattern no-drop workload at one, four
       and eight words per block.  No-drop keeps every fault live, so the
       ratio isolates the wide datapath (good-machine amortisation +
       per-fault traversal over W words) from drop-rate luck. *)
    Test.make ~name:"ppsfp width sweep (8x8 multiplier) W=1 jobs=1"
      (Staged.stage (fun () ->
           ignore
             (Rt_sim.Fault_sim.simulate ~jobs:1 ~block_words:1 ~drop:false mult mult_faults
                ~source:mult_source ~n_patterns:1024)));
    Test.make ~name:"ppsfp width sweep (8x8 multiplier) W=4 jobs=1"
      (Staged.stage (fun () ->
           ignore
             (Rt_sim.Fault_sim.simulate ~jobs:1 ~block_words:4 ~drop:false mult mult_faults
                ~source:mult_source ~n_patterns:1024)));
    Test.make ~name:"ppsfp width sweep (8x8 multiplier) W=8 jobs=1"
      (Staged.stage (fun () ->
           ignore
             (Rt_sim.Fault_sim.simulate ~jobs:1 ~block_words:8 ~drop:false mult mult_faults
                ~source:mult_source ~n_patterns:1024)));
    (* Dispatch cost of one 64-task region on the persistent pool.  The
       body is trivial on purpose: the time is the pool's wake/claim/park
       overhead that every ppsfp batch pays. *)
    Test.make ~name:"parallel dispatch 64 tasks pool jobs=4"
      (Staged.stage (fun () ->
           Rt_util.Pool.run (Rt_util.Pool.default ()) ~grain:1 ~participants:4 ~n:64
             (fun _ lo hi -> ignore (Sys.opaque_identity (hi - lo)))));
    Test.make ~name:"lfsr 64-bit word"
      (Staged.stage (fun () -> ignore (Rt_bist.Lfsr.step_word lfsr 64))) ]

(* Runs the Bechamel section, prints it, and returns [(name, ns/run)]
   sorted by name. *)
let run_perf () =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.8) ~kde:(Some 1000) () in
  let tests = Test.make_grouped ~name:"kernels" ~fmt:"%s %s" (kernel_tests ()) in
  let raw_results = Benchmark.all cfg instances tests in
  let results = List.map (fun instance -> Analyze.all ols instance raw_results) instances in
  let results = Analyze.merge ols instances results in
  Format.printf "@.== PERF: kernel timings (Bechamel, ns/run) ==@.";
  let collected = ref [] in
  Hashtbl.iter
    (fun _instance tbl ->
      let rows = Hashtbl.fold (fun name ols_result acc -> (name, ols_result) :: acc) tbl [] in
      List.iter
        (fun (test_name, ols_result) ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] ->
            Format.printf "%-55s %12.0f ns/run@." test_name est;
            collected := (test_name, est) :: !collected
          | Some _ | None -> Format.printf "%-55s (no estimate)@." test_name)
        (List.sort (fun (a, _) (b, _) -> String.compare a b) rows))
    results;
  List.sort (fun (a, _) (b, _) -> String.compare a b) !collected

(* --- pool telemetry measurement --------------------------------------------

   One sampled jobs=4 ppsfp run through the persistent pool, with the
   hardware clamp lifted so the measurement exercises real worker domains
   even on a single-core host.  Records per-lane scheduler counters and
   the utilization profile the timeline sampler saw — the jobs axis of
   the JSON is ready for multi-core hosts where the clamp never binds. *)

type pool_measurement = {
  pm_jobs : int;
  pm_period_ms : int;
  pm_samples : int;
  pm_util_peak : float;
  pm_util_mean : float;
  pm_lanes : (int * int * int * int * int) list;
      (* lane, tasks, steals, stolen_from, parked_us *)
}

let measure_pool () =
  let jobs = 4 and period_ms = 5 in
  let saved = Sys.getenv_opt "OPTPROB_JOBS_OVERCOMMIT" in
  Unix.putenv "OPTPROB_JOBS_OVERCOMMIT" "1";
  Fun.protect ~finally:(fun () ->
      Unix.putenv "OPTPROB_JOBS_OVERCOMMIT" (Option.value ~default:"" saved))
  @@ fun () ->
  Rt_obs.set_enabled true;
  Rt_obs.clear ();
  let ctx =
    Rt_pipeline.create
      (Rt_pipeline.Config.exn (Rt_pipeline.Config.make ~engine:"cop" ~circuit:"c6288ish:8" ()))
  in
  let mult = Rt_pipeline.circuit ctx in
  let mfaults = Rt_pipeline.fault_list ctx in
  let n_inputs = Array.length (Rt_circuit.Netlist.inputs mult) in
  let sampler = Rt_obs.Timeline.start ~period_ms () in
  for seed = 1 to 3 do
    let rng = Rt_util.Rng.create seed in
    let source = Rt_sim.Pattern.equiprobable rng ~n_inputs in
    ignore
      (Rt_sim.Fault_sim.simulate ~jobs ~drop:false mult mfaults ~source ~n_patterns:1024)
  done;
  let samples, _dropped = Rt_obs.Timeline.stop sampler in
  let snap = Rt_obs.counters_snapshot () in
  let v name = Option.value ~default:0 (List.assoc_opt name snap) in
  let lanes =
    List.init jobs (fun k ->
        let f field = v (Printf.sprintf "pool.d%d.%s" k field) in
        (k, f "tasks", f "steals", f "stolen_from", f "parked_us"))
  in
  let utils =
    List.filter_map
      (fun s -> List.assoc_opt "pool.utilization" s.Rt_obs.Timeline.s_gauges)
      samples
  in
  let peak = List.fold_left Float.max 0.0 utils in
  let mean =
    match utils with
    | [] -> 0.0
    | _ -> List.fold_left ( +. ) 0.0 utils /. Float.of_int (List.length utils)
  in
  Rt_obs.set_enabled false;
  Rt_obs.clear ();
  { pm_jobs = jobs;
    pm_period_ms = period_ms;
    pm_samples = List.length samples;
    pm_util_peak = peak;
    pm_util_mean = mean;
    pm_lanes = lanes }

(* --- JSON output ----------------------------------------------------------- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let write_json ~path ~mode ~experiments ~kernels ~pool ~opt ~total_seconds =
  let oc = open_out path in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"schema\": \"optprob-bench/3\",\n";
  p "  \"mode\": \"%s\",\n" (json_escape mode);
  p "  \"jobs_env\": %d,\n" (Rt_util.Parallel.default_jobs ());
  p "  \"block_words_env\": %d,\n" (Rt_sim.Pattern.default_block_words ());
  p "  \"host_cores\": %d,\n" (Domain.recommended_domain_count ());
  p "  \"total_seconds\": %.3f,\n" total_seconds;
  p "  \"pool\": {\n";
  p "    \"jobs\": %d,\n" pool.pm_jobs;
  p "    \"sample_period_ms\": %d,\n" pool.pm_period_ms;
  p "    \"timeline_samples\": %d,\n" pool.pm_samples;
  p "    \"utilization\": {\"peak\": %.4f, \"mean\": %.4f},\n" pool.pm_util_peak
    pool.pm_util_mean;
  p "    \"domains\": [\n";
  List.iteri
    (fun i (lane, tasks, steals, stolen_from, parked_us) ->
      p "      {\"lane\": %d, \"tasks\": %d, \"steals\": %d, \"stolen_from\": %d, \
         \"parked_us\": %d}%s\n"
        lane tasks steals stolen_from parked_us
        (if i = List.length pool.pm_lanes - 1 then "" else ","))
    pool.pm_lanes;
  p "    ]\n";
  p "  },\n";
  p "  \"opt\": {\n";
  p "    \"circuit\": \"s1-redundant\",\n";
  p "    \"passes\": \"%s\"," (json_escape (String.concat "," Rt_circuit.Passes.default_names));
  p "\n    \"raw\": {\"nodes\": %d, \"gates\": %d},\n" opt.om_raw_nodes opt.om_raw_gates;
  p "    \"optimized\": {\"nodes\": %d, \"gates\": %d},\n" opt.om_opt_nodes opt.om_opt_gates;
  p "    \"nodes_removed\": %d\n" (opt.om_raw_nodes - opt.om_opt_nodes);
  p "  },\n";
  p "  \"experiments\": [\n";
  List.iteri
    (fun i (id, title, seconds, counters) ->
      p "    {\"id\": \"%s\", \"title\": \"%s\", \"seconds\": %.3f, \"counters\": {"
        (json_escape id) (json_escape title) seconds;
      List.iteri
        (fun j (name, v) ->
          p "%s\"%s\": %d" (if j = 0 then "" else ", ") (json_escape name) v)
        counters;
      p "}}%s\n" (if i = List.length experiments - 1 then "" else ","))
    experiments;
  p "  ],\n";
  p "  \"kernels\": [\n";
  List.iteri
    (fun i (name, ns) ->
      p "    {\"name\": \"%s\", \"ns_per_run\": %.1f}%s\n" (json_escape name) ns
        (if i = List.length kernels - 1 then "" else ","))
    kernels;
  p "  ]\n";
  p "}\n";
  close_out oc

(* Record the finished bench run — per-experiment wall-clock as a latency
   histogram, the work counters each experiment burned, kernel ns/run as
   gauges — as a transient artifact and ingest it into the run registry,
   so `optprob obs trend bench.experiment_us.p50` works across bench
   invocations without any separate tooling. *)
let ingest_run ~registry ~experiments ~kernels ~total_seconds =
  let sanitize name =
    String.map (fun c -> if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
                          || (c >= '0' && c <= '9') || c = '.' then c else '_')
      name
  in
  Rt_obs.set_enabled true;
  Rt_obs.clear ();
  let h = Rt_obs.histogram "bench.experiment_us" in
  List.iter
    (fun (id, _title, seconds, counters) ->
      Rt_obs.observe h (seconds *. 1e6);
      Rt_obs.gauge_set (Rt_obs.gauge (Printf.sprintf "bench.%s.s" (sanitize id))) seconds;
      List.iter (fun (name, v) -> Rt_obs.add (Rt_obs.counter name) v) counters)
    experiments;
  List.iter
    (fun (name, ns) ->
      Rt_obs.gauge_set (Rt_obs.gauge ("bench.kernel." ^ sanitize name ^ ".ns")) ns)
    kernels;
  let dir = Filename.concat registry (Printf.sprintf "tmp-bench.%d" (Unix.getpid ())) in
  Rt_obs.Artifact.write ~dir
    ~manifest:(Rt_obs.Artifact.make_manifest ~argv:Sys.argv ~wall_s:total_seconds ())
    ();
  Rt_obs.clear ();
  Rt_obs.set_enabled false;
  let r = Rt_obs_registry.ingest ~registry ~obs_dir:dir () in
  (try
     Array.iter
       (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
       (Sys.readdir dir)
   with Sys_error _ -> ());
  (try Unix.rmdir dir with Unix.Unix_error _ -> ());
  match r with
  | Ok id -> Format.printf "@.registry: ingested %s into %s@." id registry
  | Error e -> Format.eprintf "@.registry: ingest failed: %s@." e

let () =
  let full, only, perf, json, registry = parse_args () in
  Format.printf "optprob reproduction harness (%s mode)@."
    (if full then "full paper-scale" else "quick");
  let t0 = Rt_util.Stats.timer_start () in
  let experiments = run_experiments ~full ~only in
  Format.printf "@.experiments completed in %.1fs@." (Rt_util.Stats.timer_elapsed t0);
  let kernels = if perf then run_perf () else [] in
  if json then begin
    let path = "BENCH_optprob.json" in
    let pool = measure_pool () in
    let opt = measure_opt () in
    Format.printf "@.pool (sampled jobs=%d ppsfp): utilization peak %.2f mean %.2f over %d samples@."
      pool.pm_jobs pool.pm_util_peak pool.pm_util_mean pool.pm_samples;
    Format.printf "opt (s1-redundant): %d -> %d nodes (%d removed)@."
      opt.om_raw_nodes opt.om_opt_nodes (opt.om_raw_nodes - opt.om_opt_nodes);
    write_json ~path
      ~mode:(if full then "full" else "quick")
      ~experiments ~kernels ~pool ~opt
      ~total_seconds:(Rt_util.Stats.timer_elapsed t0);
    Format.printf "@.wrote %s@." path
  end;
  match registry with
  | None -> ()
  | Some reg ->
    ingest_run ~registry:reg ~experiments ~kernels
      ~total_seconds:(Rt_util.Stats.timer_elapsed t0)
