(* optprob — command-line front end.

   Subcommands: list, generate, simplify, analyze, optimize, simulate,
   run, atpg, selftest, tables, and the `obs` family
   (list/show/ingest/trend/baseline/diff/gc) over the persistent run
   registry and run artifacts.  Every compute subcommand is a thin layer
   over the Rt_pipeline stage graph: it builds one validated
   Rt_pipeline.Config via the shared Cli terms, creates a pipeline
   context, and asks for the stages it needs.  With --work-dir the stage
   artifacts are content-addressed on disk, so re-runs (`optprob run`)
   resume past everything unchanged. *)

open Cmdliner
module Pipeline = Rt_pipeline
module Config = Rt_pipeline.Config
module Cli = Rt_pipeline.Cli
module Registry = Rt_obs_registry

(* --- observability flags ---------------------------------------------------
   Shared by the compute-heavy subcommands.  --obs-dir DIR writes one
   self-describing artifact directory per run (manifest.json,
   events.jsonl, metrics.json, metrics.prom, trace.json and, for
   optimize/run, convergence.json), diffable with `optprob obs diff`.
   Any obs flag enables Rt_obs recording; the disabled default costs one
   branch per probe.  While an --obs-dir run is in flight,
   SIGUSR1 dumps a live metrics snapshot into the directory. *)

type obs = {
  obs_dir : string option;
  verbose : bool;
  sample_ms : int option;
  listen : int option;
  registry : string option;  (* "" = the default registry directory *)
  mutable t_start : float;
  mutable sampler : Rt_obs.Timeline.sampler option;
  mutable server : Rt_obs_http.t option;
}

let resolve_registry obs =
  match obs.registry with
  | Some "" -> Some (Registry.default_dir ())
  | other -> other

let obs_dir_arg =
  Arg.(value & opt (some string) None & info [ "obs-dir" ] ~docv:"DIR"
         ~doc:"Write the full run artifact (manifest.json, events.jsonl, metrics.json, \
               metrics.prom, trace.json, timeline.json, convergence.json) to $(docv); \
               compare two run directories with $(b,optprob obs diff).  SIGUSR1 dumps a \
               live metrics snapshot mid-run.")

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ]
         ~doc:"Print the aggregated phase timings, counters and latency histograms to stderr.")

let sample_ms_arg =
  Arg.(value & opt (some int) None & info [ "obs-sample-ms" ] ~docv:"MS"
         ~doc:"Start a background sampler domain snapshotting all counters and gauges \
               (pool utilization, queue depths, GC, live faults) every $(docv) \
               milliseconds into a bounded ring buffer, flushed to timeline.json in the \
               --obs-dir artifact.")

let listen_arg =
  Arg.(value & opt (some int) None & info [ "obs-listen" ] ~docv:"PORT"
         ~doc:"Serve live observability over HTTP on 127.0.0.1:$(docv) while the run is \
               in flight: /metrics (OpenMetrics), /healthz, /snapshot (metrics JSON).  \
               Port 0 picks an ephemeral port (printed on startup).")

let registry_flag_arg =
  Arg.(value & opt ~vopt:(Some "") (some string) None
       & info [ "obs-registry" ] ~docv:"DIR"
         ~env:(Cmd.Env.info "OPTPROB_OBS_REGISTRY")
         ~doc:"Ingest this run's observability artifact into the persistent run registry \
               at $(docv) when it completes (bare flag: $(b,_obs/registry), or \
               $(b,OPTPROB_OBS_REGISTRY)).  Query the history with $(b,optprob obs) \
               list/show/trend/diff.")

let obs_arg =
  Term.(const (fun obs_dir verbose sample_ms listen registry ->
            { obs_dir; verbose; sample_ms; listen; registry;
              t_start = 0.0; sampler = None; server = None })
        $ obs_dir_arg $ verbose_arg $ sample_ms_arg $ listen_arg $ registry_flag_arg)

let obs_begin obs =
  obs.t_start <- Unix.gettimeofday ();
  if obs.obs_dir <> None || obs.verbose || obs.sample_ms <> None || obs.listen <> None
     || obs.registry <> None
  then Rt_obs.set_enabled true;
  (match obs.obs_dir with
   | Some dir ->
     (try
        Sys.set_signal Sys.sigusr1
          (Sys.Signal_handle (fun _ -> Rt_obs.Artifact.write_live ~dir))
      with Invalid_argument _ | Sys_error _ -> ())
   | None -> ());
  (match obs.sample_ms with
   | Some period_ms when period_ms >= 1 ->
     obs.sampler <- Some (Rt_obs.Timeline.start ~period_ms ())
   | Some bad -> failwith (Printf.sprintf "--obs-sample-ms %d: period must be >= 1" bad)
   | None -> ());
  match obs.listen with
  | Some port when port >= 0 && port < 65536 ->
    (try
       let registry = resolve_registry obs in
       let srv = Rt_obs_http.start ?registry ~port () in
       obs.server <- Some srv;
       Format.eprintf "obs: serving /metrics /healthz /snapshot%s on http://127.0.0.1:%d@."
         (if registry <> None then " /runs /trend" else "")
         (Rt_obs_http.port srv)
     with Unix.Unix_error (err, _, _) ->
       failwith
         (Printf.sprintf "--obs-listen %d: cannot bind (%s)" port (Unix.error_message err)))
  | Some bad -> failwith (Printf.sprintf "--obs-listen %d: not a valid port" bad)
  | None -> ()

(* Keep the HTTP endpoint answering briefly after the artifacts are written
   — scripted clients (make obs-live-demo, CI) race the run's natural end. *)
let obs_linger () =
  match Sys.getenv_opt "OPTPROB_OBS_LINGER_MS" with
  | Some s ->
    (match int_of_string_opt (String.trim s) with
     | Some ms when ms > 0 -> Unix.sleepf (Float.of_int ms /. 1000.0)
     | _ -> ())
  | None -> ()

(* The manifest carries the full config slice (engine, seed, jobs, circuit,
   patterns, block_words, opt_passes, opt_rounds, objective) so registry
   queries and
   trend filters never have to re-parse argv. *)
let manifest_of_cfg ?(cfg : Config.t option) obs =
  let f g = Option.map g cfg in
  Rt_obs.Artifact.make_manifest
    ?engine:(f (fun c -> c.Config.engine))
    ?seed:(f (fun c -> c.Config.seed))
    ?jobs:(Option.bind cfg (fun c -> c.Config.jobs))
    ?circuit:(f (fun c -> Config.circuit_name c.Config.circuit))
    ?patterns:(f (fun c -> c.Config.patterns))
    ?block_words:(Option.bind cfg (fun c -> c.Config.block_words))
    ?opt_passes:(f (fun c -> c.Config.opt_passes))
    ?opt_rounds:(f (fun c -> c.Config.opt_rounds))
    ?objective:(f (fun c -> Config.objective_key c))
    ~argv:Sys.argv
    ~wall_s:(Unix.gettimeofday () -. obs.t_start) ()

let obs_end ?(cfg : Config.t option) ?convergence obs =
  (* stop the sampler first so its final sample lands in the timeline and
     in the artifact snapshot below *)
  let timeline =
    match obs.sampler with
    | Some s ->
      obs.sampler <- None;
      let samples, dropped = Rt_obs.Timeline.stop s in
      Some (samples, dropped)
    | None -> None
  in
  let write_artifact dir =
    Rt_obs.Artifact.write ~dir ~manifest:(manifest_of_cfg ?cfg obs) ?convergence ();
    match (timeline, obs.sample_ms) with
    | Some (samples, dropped), Some period_ms ->
      Rt_obs.Timeline.write (Filename.concat dir "timeline.json") ~period_ms ~dropped samples
    | _ -> ()
  in
  (match obs.obs_dir with
   | Some dir ->
     write_artifact dir;
     Format.eprintf "wrote run artifact %s@." dir
   | None -> ());
  (* flag-gated auto-ingest: every completed run lands in the registry *)
  (match resolve_registry obs with
   | None -> ()
   | Some reg ->
     let ingest dir =
       match Registry.ingest ~registry:reg ~obs_dir:dir () with
       | Ok id -> Format.eprintf "registry: ingested %s into %s@." id reg
       | Error msg -> Format.eprintf "registry: ingest failed: %s@." msg
     in
     (match obs.obs_dir with
      | Some dir -> ingest dir
      | None ->
        (* no --obs-dir: write a transient artifact just long enough to
           ingest it *)
        let tmp = Filename.concat reg (Printf.sprintf "tmp-ingest.%d" (Unix.getpid ())) in
        write_artifact tmp;
        ingest tmp;
        Array.iter
          (fun f -> try Sys.remove (Filename.concat tmp f) with Sys_error _ -> ())
          (try Sys.readdir tmp with Sys_error _ -> [||]);
        (try Unix.rmdir tmp with Unix.Unix_error _ -> ())));
  (match obs.server with
   | Some srv ->
     obs.server <- None;
     obs_linger ();
     Rt_obs_http.stop srv
   | None -> ());
  if obs.verbose then begin
    Rt_obs.sample_gc ();
    Rt_obs.pp_summary Format.err_formatter
  end

let exits = Cmd.Exit.defaults

let wrap f = try `Ok (f ()) with Failure msg -> `Error (false, msg)

(* --- list ----------------------------------------------------------------- *)

let list_cmd =
  let run () =
    Format.printf "built-in circuits:@.";
    List.iter
      (fun (name, gen) ->
        let c = gen () in
        Format.printf "  %-10s %t@." name (fun ppf -> Rt_circuit.Netlist.stats c ppf))
      Rt_circuit.Generators.paper_suite;
    Format.printf "  %-10s pathological pair for --partition (section 5.3)@." "antagonist";
    Format.printf "parameterised: wide_and-N, s2:W, c6288ish:W@."
  in
  Cmd.v (Cmd.info "list" ~doc:"List built-in circuit generators." ~exits)
    Term.(ret (const (fun () -> wrap run) $ const ()))

(* --- generate -------------------------------------------------------------- *)

let generate_cmd =
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Write the netlist to FILE instead of stdout.")
  in
  let run circuit out () =
    let ctx = Pipeline.create (Config.exn (Config.of_source circuit)) in
    (* the raw netlist: `generate` prints the circuit as defined, not its
       optimized form (that's `simplify -o`) *)
    let c = Pipeline.raw_circuit ctx in
    match out with
    | Some path ->
      Rt_circuit.Bench_format.save path c;
      Format.printf "wrote %s (%t)@." path (fun ppf -> Rt_circuit.Netlist.stats c ppf)
    | None -> print_string (Rt_circuit.Bench_format.to_string c)
  in
  Cmd.v (Cmd.info "generate" ~doc:"Emit a circuit as ISCAS-85 .bench text." ~exits)
    Term.(ret (const (fun c o () -> wrap (run c o)) $ Cli.circuit_arg $ out $ const ()))

(* --- simplify --------------------------------------------------------------- *)

let simplify_cmd =
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Write the optimized netlist as .bench text to FILE.")
  in
  let run circuit no_opt opt_passes opt_rounds out () =
    let opt_passes = if no_opt then Some [] else opt_passes in
    let cfg = Config.exn (Config.of_source ?opt_passes ~opt_rounds circuit) in
    let ctx = Pipeline.create cfg in
    let raw = Pipeline.raw_circuit ctx in
    let c = Pipeline.circuit ctx in
    let stats = Pipeline.opt_stats ctx in
    Format.printf "before: %t@." (fun ppf -> Rt_circuit.Netlist.stats raw ppf);
    Format.printf "after:  %t@." (fun ppf -> Rt_circuit.Netlist.stats c ppf);
    Format.printf "rounds: %d  nodes removed: %d@." stats.Rt_circuit.Passes.rounds
      (Rt_circuit.Netlist.size raw - Rt_circuit.Netlist.size c);
    Format.printf "%a" Rt_circuit.Passes.pp_stats stats;
    match out with
    | Some path ->
      Rt_circuit.Bench_format.save path c;
      Format.printf "wrote %s@." path
    | None -> ()
  in
  Cmd.v
    (Cmd.info "simplify"
       ~doc:"Run the netlist optimization passes to fixpoint and report per-pass stats." ~exits)
    Term.(
      ret
        (const (fun c n p r o () -> wrap (run c n p r o))
        $ Cli.circuit_arg $ Cli.no_opt_arg $ Cli.opt_passes_arg $ Cli.opt_rounds_arg $ out
        $ const ()))

(* --- analyze --------------------------------------------------------------- *)

let analyze_cmd =
  let run cfg obs () =
    obs_begin obs;
    let ctx = Pipeline.create cfg in
    let c = Pipeline.circuit ctx in
    let faults = Pipeline.fault_list ctx in
    let a = (Pipeline.analysis ctx).Pipeline.value in
    let n = (Pipeline.normalized ctx).Pipeline.value in
    Format.printf "circuit:    %t@." (fun ppf -> Rt_circuit.Netlist.stats c ppf);
    (if cfg.Config.opt_passes <> [] then
       let removed =
         Rt_circuit.Netlist.size (Pipeline.raw_circuit ctx) - Rt_circuit.Netlist.size c
       in
       if removed > 0 then Format.printf "opt:        %d nodes removed (%s)@." removed
           (Config.opt_key cfg));
    Format.printf "faults:     %d collapsed (universe %d), %d proven redundant@."
      (Array.length faults)
      (Array.length (Rt_fault.Fault.universe c))
      (Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 a.Pipeline.proven_redundant);
    Format.printf "engine:     %s@." a.Pipeline.engine_desc;
    Format.printf "required N: %s (confidence %.2f)@."
      (if Float.is_finite n.Pipeline.n_required then
         Printf.sprintf "%.3e" n.Pipeline.n_required
       else "infinite")
      cfg.Config.confidence;
    Format.printf "hardest faults:@.";
    let shown = min 10 (Array.length n.Pipeline.hard) in
    for k = 0 to shown - 1 do
      let fi = n.Pipeline.hard.(k) in
      Format.printf "  %-30s p = %a@."
        (Rt_fault.Fault.to_string c faults.(fi))
        Rt_util.Prob.pp a.Pipeline.pf.(fi)
    done;
    obs_end ~cfg obs
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Testability analysis: detection probabilities and test length."
       ~exits)
    Term.(ret (const (fun cfg obs () -> wrap (run cfg obs)) $ Cli.config () $ obs_arg $ const ()))

(* --- optimize -------------------------------------------------------------- *)

let optimize_cmd =
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Write the optimized weights to FILE.")
  in
  let partition =
    Arg.(value & flag & info [ "partition" ]
           ~doc:"Also try the section-5.3 fault-set partitioning (2 distributions).")
  in
  let run cfg out partition obs () =
    obs_begin obs;
    let ctx = Pipeline.create cfg in
    (* The recorder feeds the --obs-dir convergence.json artifact.  It only
       fills when the stage actually runs (not on a cache hit). *)
    let recorder =
      if obs.obs_dir <> None then Some (Rt_obs.Convergence.create ()) else None
    in
    let staged =
      Pipeline.optimized
        ~progress:(fun ~sweep ~n -> Format.printf "sweep %d: N = %.3e@." sweep n)
        ?recorder ctx
    in
    let opt = staged.Pipeline.value in
    let report = opt.Pipeline.opt_report in
    if staged.Pipeline.from_cache then
      Format.printf "optimized stage served from the work-dir artifact (cache hit)@.";
    Format.printf "@.engine:        %s@."
      (Pipeline.analysis ctx).Pipeline.value.Pipeline.engine_desc;
    if cfg.Config.objective <> "single" then
      Format.printf "objective:      %s@." cfg.Config.objective;
    Format.printf "N conventional: %.3e@." report.Rt_optprob.Optimize.n_initial;
    Format.printf "N optimized:    %.3e  (gain x%.0f)@." report.Rt_optprob.Optimize.n_final
      (Rt_optprob.Optimize.improvement report);
    (match opt.Pipeline.opt_two_stage with
     | Some ts ->
       Format.printf "two-stage:      N1=%d (%d survivors) + N2=%s = %s vs single %.3e@."
         ts.Rt_optprob.Optimize.ts_n1 ts.Rt_optprob.Optimize.ts_survivors
         (if Float.is_finite ts.Rt_optprob.Optimize.ts_n2 then
            Printf.sprintf "%.3e" ts.Rt_optprob.Optimize.ts_n2
          else "inf")
         (if Float.is_finite ts.Rt_optprob.Optimize.ts_total then
            Printf.sprintf "%.3e" ts.Rt_optprob.Optimize.ts_total
          else "inf")
         ts.Rt_optprob.Optimize.ts_single_n
     | None -> ());
    let c = Pipeline.circuit ctx in
    let weights = Pipeline.opt_weights opt in
    Format.printf "weights:@.%a" (Rt_optprob.Weights_io.pp c) weights;
    (match out with
     | Some path ->
       Rt_optprob.Weights_io.save path c weights;
       Format.printf "wrote %s@." path
     | None -> ());
    if partition then begin
      let options = Config.optimize_options cfg in
      let sp = Rt_optprob.Partition.split ~options (Pipeline.oracle ctx) in
      Format.printf "@.partitioned test (%d parts):@."
        (Array.length sp.Rt_optprob.Partition.groups);
      Array.iteri
        (fun i n -> Format.printf "  part %d: N = %.3e@." i n)
        sp.Rt_optprob.Partition.n_parts;
      Format.printf "  total %.3e vs single %.3e@." sp.Rt_optprob.Partition.n_total
        sp.Rt_optprob.Partition.n_single
    end;
    obs_end ~cfg ?convergence:recorder obs
  in
  Cmd.v
    (Cmd.info "optimize" ~doc:"Compute optimized input probabilities (the paper's procedure)."
       ~exits)
    Term.(
      ret
        (const (fun cfg o p obs () -> wrap (run cfg o p obs))
        $ Cli.config () $ out $ partition $ obs_arg $ const ()))

(* --- simulate -------------------------------------------------------------- *)

let simulate_cmd =
  let curve =
    Arg.(value & flag & info [ "curve" ] ~doc:"Print the coverage-vs-pattern-count curve.")
  in
  let run cfg curve obs () =
    obs_begin obs;
    let ctx = Pipeline.create cfg in
    let faults = Pipeline.fault_list ctx in
    let v = (Pipeline.simulated ctx).Pipeline.value in
    Format.printf "patterns: %d  faults: %d  coverage: %.2f%%@." v.Pipeline.patterns_run
      (Array.length faults)
      (100.0 *. v.Pipeline.coverage);
    let stats = Pipeline.sim_stats ctx v in
    if curve then begin
      let points =
        Rt_util.Stats.geometric_steps ~lo:16 ~hi:v.Pipeline.patterns_run ~per_decade:4
      in
      List.iter
        (fun (k, cov) -> Format.printf "  %6d  %.2f%%@." k (100.0 *. cov))
        (Rt_sim.Fault_sim.coverage_curve stats ~points)
    end;
    let undet = Rt_sim.Fault_sim.undetected stats in
    let c = Pipeline.circuit ctx in
    if Array.length undet > 0 && Array.length undet <= 20 then begin
      Format.printf "undetected:@.";
      Array.iter (fun f -> Format.printf "  %s@." (Rt_fault.Fault.to_string c f)) undet
    end
    else if Array.length undet > 20 then
      Format.printf "undetected: %d faults@." (Array.length undet);
    obs_end ~cfg obs
  in
  Cmd.v (Cmd.info "simulate" ~doc:"Fault-simulate random patterns and report coverage." ~exits)
    Term.(
      ret
        (const (fun cfg cv obs () -> wrap (run cfg cv obs))
        $ Cli.config () $ curve $ obs_arg $ const ()))

(* --- run (whole graph) ------------------------------------------------------ *)

let run_cmd =
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Write the optimized weights to FILE.")
  in
  let quiet =
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Suppress per-sweep progress lines.")
  in
  let run cfg out quiet obs () =
    obs_begin obs;
    let ctx = Pipeline.create cfg in
    let recorder =
      if obs.obs_dir <> None then Some (Rt_obs.Convergence.create ()) else None
    in
    let progress ~sweep ~n =
      if not quiet then Format.printf "sweep %d: N = %.3e@." sweep n
    in
    let outcome = Pipeline.run ~progress ?recorder ctx in
    Format.printf "@.stages:@.%a" Pipeline.pp_stages outcome;
    let report = outcome.Pipeline.o_report.Pipeline.value in
    Format.printf "@.%a" Pipeline.pp_report report;
    (match out with
     | Some path ->
       Rt_optprob.Weights_io.save path (Pipeline.circuit ctx)
         report.Pipeline.r_opt.Rt_optprob.Optimize.weights;
       Format.printf "wrote %s@." path
     | None -> ());
    obs_end ~cfg ?convergence:recorder obs
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Run the whole pipeline (load, collapse, analyze, normalize, optimize, validate) \
             with resumable stage artifacts under --work-dir."
       ~exits)
    Term.(
      ret
        (const (fun cfg o q obs () -> wrap (run cfg o q obs))
        $ Cli.config () $ out $ quiet $ obs_arg $ const ()))

(* --- atpg ------------------------------------------------------------------ *)

let atpg_cmd =
  let run circuit () =
    let ctx = Pipeline.create (Config.exn (Config.of_source circuit)) in
    let c = Pipeline.circuit ctx in
    let faults = Pipeline.fault_list ctx in
    let r = Rt_atpg.Tpg.generate c faults in
    Format.printf "tests:     %d@." (Array.length r.Rt_atpg.Tpg.tests);
    Format.printf "detected:  %d / %d@." r.Rt_atpg.Tpg.detected (Array.length faults);
    Format.printf "redundant: %d@." (Array.length r.Rt_atpg.Tpg.redundant);
    Format.printf "aborted:   %d@." (Array.length r.Rt_atpg.Tpg.aborted);
    Format.printf "atpg:      %d calls@." r.Rt_atpg.Tpg.podem_calls;
    Format.printf "time:      %.2fs@." r.Rt_atpg.Tpg.seconds
  in
  Cmd.v
    (Cmd.info "atpg"
       ~doc:"Deterministic test generation (PODEM) — the section-5.2 baseline." ~exits)
    Term.(ret (const (fun c () -> wrap (run c)) $ Cli.circuit_arg $ const ()))

(* --- selftest --------------------------------------------------------------- *)

let selftest_cmd =
  let patterns =
    Arg.(value & opt int 4096 & info [ "patterns"; "n" ] ~docv:"N" ~doc:"Session length.")
  in
  let run circuit weights patterns () =
    let weights_src =
      match weights with None -> Config.Uniform | Some path -> Config.Weights_file path
    in
    let ctx = Pipeline.create (Config.exn (Config.of_source ~weights:weights_src circuit)) in
    let c = Pipeline.circuit ctx in
    let faults = Pipeline.fault_list ctx in
    let x = Config.resolve_weights (Pipeline.config ctx) c in
    let cfg =
      { (Rt_bist.Selftest.default_config c ~weights:x) with Rt_bist.Selftest.n_patterns = patterns }
    in
    let oc = Rt_bist.Selftest.run c faults cfg in
    Format.printf "golden signature: %016Lx@." oc.Rt_bist.Selftest.golden;
    Format.printf "coverage:         %.2f%%@." (100.0 *. oc.Rt_bist.Selftest.coverage);
    Format.printf "aliased:          %d@." oc.Rt_bist.Selftest.aliased
  in
  Cmd.v
    (Cmd.info "selftest" ~doc:"BILBO-style self-test session with weighted LFSR and MISR."
       ~exits)
    Term.(
      ret
        (const (fun c w n () -> wrap (run c w n))
        $ Cli.circuit_arg $ Cli.weights_arg $ patterns $ const ()))

(* --- obs: the run-registry subcommand family --------------------------------- *)

let diff_thresholds_term =
  let d = Rt_obs.Diff.default in
  let span_ratio =
    Arg.(value & opt float d.Rt_obs.Diff.span_ratio & info [ "max-span-ratio" ] ~docv:"R"
           ~doc:"Flag a span whose total wall-clock grew by more than $(docv)x.")
  in
  let quantile_ratio =
    Arg.(value & opt float d.Rt_obs.Diff.quantile_ratio
         & info [ "max-quantile-ratio" ] ~docv:"R"
           ~doc:"Flag a histogram whose p50 or p99 shifted by more than $(docv)x \
                 (also gates the convergence final N).")
  in
  let counter_ratio =
    Arg.(value & opt float d.Rt_obs.Diff.counter_ratio & info [ "max-counter-ratio" ] ~docv:"R"
           ~doc:"Flag a counter that changed by more than $(docv)x.")
  in
  let min_span_us =
    Arg.(value & opt float d.Rt_obs.Diff.min_span_us & info [ "min-span-us" ] ~docv:"US"
           ~doc:"Noise floor: ignore span totals below $(docv) microseconds in both runs.")
  in
  Term.(
    const (fun span_ratio quantile_ratio counter_ratio min_span_us ->
        { Rt_obs.Diff.default with
          Rt_obs.Diff.span_ratio;
          quantile_ratio;
          counter_ratio;
          min_span_us })
    $ span_ratio $ quantile_ratio $ counter_ratio $ min_span_us)

let diff_quiet_arg =
  Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Only set the exit status; print nothing.")

let run_diff ~thresholds ~quiet a b =
  let findings = Rt_obs.Diff.compare_dirs ~thresholds a b in
  if not quiet then Rt_obs.Diff.pp_report Format.std_formatter findings;
  if Rt_obs.Diff.regressions findings <> [] then exit 3

let registry_dir_arg =
  Arg.(value & opt string (Registry.default_dir ())
       & info [ "obs-registry" ] ~docv:"DIR"
         ~doc:"Registry root directory (default: $(b,OPTPROB_OBS_REGISTRY) when set, \
               else $(b,_obs/registry)).")

let filter_args =
  let engine =
    Arg.(value & opt (some string) None & info [ "engine" ] ~docv:"ENGINE"
           ~doc:"Only runs whose manifest engine equals $(docv).")
  in
  let circuit =
    Arg.(value & opt (some string) None & info [ "circuit" ] ~docv:"NAME"
           ~doc:"Only runs whose manifest circuit equals $(docv).")
  in
  let git_rev =
    Arg.(value & opt (some string) None & info [ "git-rev" ] ~docv:"REV"
           ~doc:"Only runs whose git revision starts with $(docv).")
  in
  let config =
    Arg.(value & opt_all string [] & info [ "config" ] ~docv:"K=V"
           ~doc:"Only runs whose manifest config slice contains $(docv) \
                 (repeatable; e.g. $(b,--config jobs=4 --config block_words=8)).")
  in
  Term.(const (fun e c g kvs -> (e, c, g, kvs)) $ engine $ circuit $ git_rev $ config)

(* parse --config K=V pairs inside [wrap] so a bad pair is a clean error *)
let make_filter (f_engine, f_circuit, f_git_rev, kvs) =
  let pair kv =
    match String.index_opt kv '=' with
    | Some i -> (String.sub kv 0 i, String.sub kv (i + 1) (String.length kv - i - 1))
    | None -> failwith (Printf.sprintf "--config %s: expected K=V" kv)
  in
  { Registry.f_engine; f_circuit; f_git_rev; f_config = List.map pair kvs }

let short_rev rev = if String.length rev > 8 then String.sub rev 0 8 else rev

let obs_list_cmd =
  let ids_only =
    Arg.(value & flag & info [ "ids" ] ~doc:"Print record ids only (for scripting).")
  in
  let run reg fargs ids_only () =
    let sums = Registry.list ~filter:(make_filter fargs) ~registry:reg () in
    if ids_only then List.iter (fun (s : Registry.summary) -> print_endline s.Registry.id) sums
    else begin
      Format.printf "%-24s %-20s %-12s %-10s %-9s %s@." "ID" "WHEN(UTC)" "CIRCUIT" "ENGINE"
        "GIT" "WALL_S";
      List.iter
        (fun (s : Registry.summary) ->
          let tm = Unix.gmtime s.Registry.ts in
          Format.printf "%-24s %04d-%02d-%02d %02d:%02d:%02d   %-12s %-10s %-9s %.2f@."
            s.Registry.id (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1) tm.Unix.tm_mday
            tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec
            (Option.value ~default:"-" s.Registry.circuit)
            (Option.value ~default:"-" s.Registry.engine)
            (short_rev s.Registry.git_rev) s.Registry.wall_s)
        sums;
      Format.printf "%d record(s) in %s%s@." (List.length sums) reg
        (match Registry.promoted ~registry:reg with
         | Some id -> Printf.sprintf " (baseline %s)" id
         | None -> "")
    end
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List registry records, oldest first, with optional filters." ~exits)
    Term.(
      ret
        (const (fun r f i () -> wrap (run r f i))
        $ registry_dir_arg $ filter_args $ ids_only $ const ()))

let obs_show_cmd =
  let id_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ID" ~doc:"Record id.")
  in
  let run reg id () =
    match Registry.load ~registry:reg id with
    | Error msg -> failwith msg
    | Ok r ->
      let s = r.Registry.r_summary in
      let tm = Unix.gmtime s.Registry.ts in
      Format.printf "id:       %s@." s.Registry.id;
      Format.printf "ingested: %04d-%02d-%02d %02d:%02d:%02d UTC@." (tm.Unix.tm_year + 1900)
        (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec;
      Format.printf "git_rev:  %s@." s.Registry.git_rev;
      Format.printf "wall_s:   %.3f@." s.Registry.wall_s;
      if s.Registry.config <> [] then begin
        Format.printf "config:@.";
        List.iter (fun (k, v) -> Format.printf "  %-14s %s@." k v) s.Registry.config
      end;
      Format.printf "metrics (%d):@." (List.length r.Registry.r_metrics);
      List.iter (fun (k, v) -> Format.printf "  %-44s %.6g@." k v) r.Registry.r_metrics
  in
  Cmd.v
    (Cmd.info "show" ~doc:"Show one record: identity, config slice and all derived metrics."
       ~exits)
    Term.(ret (const (fun r i () -> wrap (run r i)) $ registry_dir_arg $ id_arg $ const ()))

let obs_ingest_cmd =
  let dir_arg =
    Arg.(required & pos 0 (some dir) None & info [] ~docv:"DIR"
           ~doc:"A run artifact directory (from --obs-dir).")
  in
  let id_arg =
    Arg.(value & opt (some string) None & info [ "id" ] ~docv:"ID"
           ~doc:"Pin the record id instead of generating one.")
  in
  let run reg dir id () =
    match Registry.ingest ?id ~registry:reg ~obs_dir:dir () with
    | Ok id -> Format.printf "ingested %s as %s@." dir id
    | Error msg -> failwith msg
  in
  Cmd.v
    (Cmd.info "ingest" ~doc:"Ingest an --obs-dir artifact directory into the registry." ~exits)
    Term.(
      ret
        (const (fun r d i () -> wrap (run r d i))
        $ registry_dir_arg $ dir_arg $ id_arg $ const ()))

let obs_trend_cmd =
  let metric_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"METRIC"
           ~doc:"Derived metric name, e.g. $(b,pipeline.total_us), $(b,wall_s), \
                 $(b,oracle.query.us.p90), $(b,span.optimize.us) — see \
                 $(b,optprob obs show ID) for everything a record carries.")
  in
  let last_arg =
    Arg.(value & opt int 30 & info [ "last" ] ~docv:"N" ~doc:"Use the last $(docv) runs.")
  in
  let window_arg =
    Arg.(value & opt int 8 & info [ "window" ] ~docv:"W"
           ~doc:"Trailing window width for the step-change detector.")
  in
  let step_k_arg =
    Arg.(value & opt float 4.0 & info [ "step-k" ] ~docv:"K"
           ~doc:"Flag a point deviating more than $(docv) robust sigmas (1.4826*MAD) \
                 from the trailing-window median.")
  in
  let step_rel_arg =
    Arg.(value & opt float 0.25 & info [ "step-rel" ] ~docv:"F"
           ~doc:"Relative noise floor: never flag a deviation below $(docv)*|median|.")
  in
  let invert_arg =
    Arg.(value & flag & info [ "invert" ]
           ~doc:"Treat the metric as higher-is-better (downward steps gate).")
  in
  let gate_arg =
    Arg.(value & flag & info [ "gate" ]
           ~doc:"Exit 3 when the newest point is a flagged regression step.")
  in
  let run reg fargs metric last window k rel invert gate () =
    let filter = make_filter fargs in
    let series = Registry.series ~filter ~last ~registry:reg metric in
    let pts = series.Registry.s_points in
    if pts = [] then Format.printf "trend %s: no data points in %s@." metric reg
    else begin
      Format.printf "trend %s (%d point(s), registry %s):@." metric (List.length pts) reg;
      List.iter
        (fun (p : Registry.point) ->
          Format.printf "  %-24s %.6g@." p.Registry.p_id p.Registry.p_value)
        pts;
      let values =
        Array.of_list (List.map (fun (p : Registry.point) -> p.Registry.p_value) pts)
      in
      Format.printf "  spark: %s@." (Registry.sparkline values);
      Format.printf "  mean %.4g  p50 %.4g  p90 %.4g@." series.Registry.s_mean
        series.Registry.s_p50 series.Registry.s_p90;
      let steps = Registry.step_changes ~window ~k ~rel values in
      if steps = [] then Format.printf "  step changes: none@."
      else
        List.iter
          (fun (st : Registry.step) ->
            let p = List.nth pts st.Registry.st_index in
            Format.printf "  step at %s: %.4g vs trailing median %.4g (%s, x%.2g over threshold)@."
              p.Registry.p_id st.Registry.st_value st.Registry.st_median
              (if st.Registry.st_up then "up" else "down")
              st.Registry.st_ratio)
          steps;
      if gate then begin
        let newest = Array.length values - 1 in
        let bad =
          List.exists
            (fun (st : Registry.step) ->
              st.Registry.st_index = newest
              && (if invert then not st.Registry.st_up else st.Registry.st_up))
            steps
        in
        if bad then begin
          Format.printf "trend gate: REGRESSION on the newest run@.";
          exit 3
        end
        else Format.printf "trend gate: ok@."
      end
    end
  in
  let exits = Cmd.Exit.info 3 ~doc:"with --gate, when the newest run regressed." :: exits in
  Cmd.v
    (Cmd.info "trend"
       ~doc:"Time series of one metric over the registry: values, sparkline, mean/p50/p90 \
             and robust step-change detection."
       ~exits)
    Term.(
      ret
        (const (fun r f m l w k rl i g () -> wrap (run r f m l w k rl i g))
        $ registry_dir_arg $ filter_args $ metric_arg $ last_arg $ window_arg $ step_k_arg
        $ step_rel_arg $ invert_arg $ gate_arg $ const ()))

let obs_baseline_cmd =
  let show_term =
    Term.(
      ret
        (const (fun reg () ->
             wrap (fun () ->
                 match Registry.promoted ~registry:reg with
                 | Some id -> Format.printf "%s@." id
                 | None -> Format.printf "no baseline promoted@."))
        $ registry_dir_arg $ const ()))
  in
  let promote_cmd =
    let id_arg =
      Arg.(required & pos 0 (some string) None & info [] ~docv:"ID" ~doc:"Record id.")
    in
    let run reg id () =
      match Registry.promote ~registry:reg id with
      | Ok () -> Format.printf "baseline: %s@." id
      | Error msg -> failwith msg
    in
    Cmd.v (Cmd.info "promote" ~doc:"Promote a record as the baseline." ~exits)
      Term.(ret (const (fun r i () -> wrap (run r i)) $ registry_dir_arg $ id_arg $ const ()))
  in
  let clear_cmd =
    let run reg () =
      Registry.clear_baseline ~registry:reg;
      Format.printf "baseline cleared@."
    in
    Cmd.v (Cmd.info "clear" ~doc:"Drop the promoted baseline." ~exits)
      Term.(ret (const (fun r () -> wrap (run r)) $ registry_dir_arg $ const ()))
  in
  let show_cmd =
    Cmd.v (Cmd.info "show" ~doc:"Print the promoted baseline id." ~exits) show_term
  in
  Cmd.group ~default:show_term
    (Cmd.info "baseline" ~doc:"Manage the promoted baseline record." ~exits)
    [ promote_cmd; show_cmd; clear_cmd ]

let obs_reg_diff_cmd =
  let side_a =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"A"
           ~doc:"Baseline side: a record id or an artifact directory.  With --baseline \
                 this is the candidate (defaults to the newest record).")
  in
  let side_b =
    Arg.(value & pos 1 (some string) None & info [] ~docv:"B"
           ~doc:"Candidate side: a record id or an artifact directory.")
  in
  let baseline_flag =
    Arg.(value & flag & info [ "baseline" ]
           ~doc:"Diff against the promoted baseline instead of an explicit pair.")
  in
  let run reg use_baseline a b thresholds quiet () =
    let cleanups = ref [] in
    let tmp_n = ref 0 in
    (* a side is an existing directory, else a registry record id expanded
       into a temporary artifact directory *)
    let resolve name =
      if Sys.file_exists name && Sys.is_directory name then name
      else if
        not (List.exists (fun (s : Registry.summary) -> s.Registry.id = name)
               (Registry.list ~registry:reg ()))
      then
        failwith
          (Printf.sprintf "%s: neither an artifact directory nor a record id in %s" name reg)
      else begin
        let dir =
          Filename.concat reg
            (Printf.sprintf "tmp-diff.%d.%d" (Unix.getpid ()) (Stdlib.incr tmp_n; !tmp_n))
        in
        match Registry.materialize ~registry:reg ~dir name with
        | Ok () ->
          cleanups := dir :: !cleanups;
          dir
        | Error msg -> failwith msg
      end
    in
    let cleanup () =
      List.iter
        (fun dir ->
          Array.iter
            (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
            (try Sys.readdir dir with Sys_error _ -> [||]);
          try Unix.rmdir dir with Unix.Unix_error _ -> ())
        !cleanups
    in
    let name_a, name_b =
      if use_baseline then begin
        let bid =
          match Registry.promoted ~registry:reg with
          | Some id -> id
          | None ->
            failwith "no baseline promoted (run `optprob obs baseline promote ID` first)"
        in
        let candidate =
          match (a, b) with
          | _, Some x | Some x, None -> x
          | None, None -> (
            match List.rev (Registry.list ~registry:reg ()) with
            | s :: _ -> s.Registry.id
            | [] -> failwith ("registry is empty: " ^ reg))
        in
        (bid, candidate)
      end
      else
        match (a, b) with
        | Some a, Some b -> (a, b)
        | _ -> failwith "give two sides (A B) or --baseline"
    in
    Fun.protect ~finally:cleanup (fun () ->
        run_diff ~thresholds ~quiet (resolve name_a) (resolve name_b))
  in
  let exits = Cmd.Exit.info 3 ~doc:"on regressions past the configured thresholds." :: exits in
  Cmd.v
    (Cmd.info "diff"
       ~doc:"Diff two run artifact directories (from --obs-dir) or registry records: counter \
             deltas, span-tree wall-clock, histogram quantile shifts, convergence divergence.  \
             With --baseline, diff the newest run against the promoted baseline."
       ~exits)
    Term.(
      ret
        (const (fun r bl a b th q () -> wrap (run r bl a b th q))
        $ registry_dir_arg $ baseline_flag $ side_a $ side_b $ diff_thresholds_term
        $ diff_quiet_arg $ const ()))

let obs_gc_cmd =
  let keep_arg =
    Arg.(value & opt (some int) None & info [ "keep" ] ~docv:"N"
           ~doc:"Keep only the newest $(docv) records.")
  in
  let max_age_arg =
    Arg.(value & opt (some float) None & info [ "max-age-days" ] ~docv:"D"
           ~doc:"Drop records older than $(docv) days.")
  in
  let run reg keep max_age_days () =
    if keep = None && max_age_days = None then
      failwith "nothing to do: give --keep and/or --max-age-days";
    let removed =
      Registry.gc ?keep ?max_age_s:(Option.map (fun d -> d *. 86400.0) max_age_days)
        ~registry:reg ()
    in
    Format.printf "obs gc: removed %d record(s), %d left@." removed
      (List.length (Registry.list ~registry:reg ()))
  in
  Cmd.v
    (Cmd.info "gc"
       ~doc:"Apply retention to the registry (the promoted baseline always survives)." ~exits)
    Term.(
      ret
        (const (fun r k a () -> wrap (run r k a))
        $ registry_dir_arg $ keep_arg $ max_age_arg $ const ()))

let obs_cmd =
  Cmd.group
    (Cmd.info "obs"
       ~doc:"The persistent run registry: history, trends, baselines and regression gates."
       ~exits)
    [ obs_list_cmd; obs_show_cmd; obs_ingest_cmd; obs_trend_cmd; obs_baseline_cmd;
      obs_reg_diff_cmd; obs_gc_cmd ]

(* --- tables ------------------------------------------------------------------ *)

let tables_cmd =
  let full = Arg.(value & flag & info [ "full" ] ~doc:"Paper-scale mode.") in
  let only =
    Arg.(value & opt (some string) None & info [ "only" ] ~docv:"IDS"
           ~doc:"Comma-separated experiment ids (t1..t5, f1, f2, a1, x2, x3).")
  in
  let run full only () =
    let tables =
      match only with
      | None -> Rt_repro.Experiments.all ~full ()
      | Some ids ->
        List.filter_map
          (fun id ->
            match Rt_repro.Experiments.by_id id with
            | Some f -> Some (f ~full ())
            | None -> failwith ("unknown experiment id " ^ id))
          (String.split_on_char ',' ids)
    in
    List.iter (Rt_repro.Experiments.print_table Format.std_formatter) tables
  in
  Cmd.v
    (Cmd.info "tables" ~doc:"Reproduce the paper's tables and figures." ~exits)
    Term.(ret (const (fun f o () -> wrap (run f o)) $ full $ only $ const ()))

let () =
  let doc = "optimized input probabilities for random tests (Wunderlich, DAC 1987)" in
  let info = Cmd.info "optprob" ~version:"1.0.0" ~doc in
  let group =
    Cmd.group info
      [ list_cmd; generate_cmd; simplify_cmd; analyze_cmd; optimize_cmd; simulate_cmd;
        run_cmd; atpg_cmd; selftest_cmd; tables_cmd; obs_cmd ]
  in
  exit (Cmd.eval group)
