(* optprob — command-line front end.

   Subcommands: list, generate, simplify, analyze, optimize, simulate,
   run, atpg, and `obs diff` over two run artifact directories.  Every
   compute subcommand is a thin layer over the Rt_pipeline stage graph:
   it builds one validated Rt_pipeline.Config via the shared Cli terms,
   creates a pipeline context, and asks for the stages it needs.  With
   --work-dir the stage artifacts are content-addressed on disk, so
   re-runs (`optprob run`) resume past everything unchanged. *)

open Cmdliner
module Pipeline = Rt_pipeline
module Config = Rt_pipeline.Config
module Cli = Rt_pipeline.Cli

(* --- observability flags ---------------------------------------------------
   Shared by the compute-heavy subcommands.  --obs-dir DIR writes one
   self-describing artifact directory per run (manifest.json,
   metrics.json, trace.json and, for optimize/run, convergence.json),
   diffable with `optprob obs diff`.
   Any obs flag enables Rt_obs recording; the disabled default costs one
   branch per probe. *)

type obs = {
  obs_dir : string option;
  verbose : bool;
  mutable t_start : float;
}

let obs_dir_arg =
  Arg.(value & opt (some string) None & info [ "obs-dir" ] ~docv:"DIR"
         ~doc:"Write the full run artifact (manifest.json, metrics.json, trace.json, \
               convergence.json) to $(docv); compare two run directories with \
               $(b,optprob obs diff).")

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ]
         ~doc:"Print the aggregated phase timings, counters and latency histograms to stderr.")

let obs_arg =
  Term.(const (fun obs_dir verbose -> { obs_dir; verbose; t_start = 0.0 })
        $ obs_dir_arg $ verbose_arg)

let obs_begin obs =
  obs.t_start <- Unix.gettimeofday ();
  if obs.obs_dir <> None || obs.verbose then Rt_obs.set_enabled true

(* The manifest carries the full config slice (engine, seed, jobs, circuit,
   patterns, block_words, opt_passes, opt_rounds, objective), so a reader
   of an artifact directory never has to re-parse argv. *)
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
  (match obs.obs_dir with
   | Some dir ->
     Rt_obs.Artifact.write ~dir ~manifest:(manifest_of_cfg ?cfg obs) ?convergence ();
     Format.eprintf "wrote run artifact %s@." dir
   | None -> ());
  if obs.verbose then begin
    Rt_obs.sample_gc ();
    Rt_obs.pp_summary Format.err_formatter
  end

let exits = Cmd.Exit.defaults

let wrap f =
  try `Ok (f ()) with
  | Failure msg -> `Error (false, msg)
  | Rt_circuit.Bench_format.Parse_error { file; line; msg } ->
    `Error (false, Printf.sprintf "%s:%d: %s" file line msg)

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
    Format.printf "N optimized:    %.3e  (gain %a)@." report.Rt_optprob.Optimize.n_final
      Pipeline.pp_gain report;
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

(* --- obs diff ------------------------------------------------------------------ *)

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

let obs_diff_cmd =
  let side n docv doc = Arg.(required & pos n (some string) None & info [] ~docv ~doc) in
  let quiet =
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Only set the exit status; print nothing.")
  in
  let run a b thresholds quiet () =
    let read dir = match Rt_obs.Artifact.read dir with Ok r -> r | Error msg -> failwith msg in
    let run_a = read a in
    let run_b = read b in
    let findings = Rt_obs.Diff.compare ~thresholds run_a run_b in
    if not quiet then Rt_obs.Diff.pp_report Format.std_formatter findings;
    if Rt_obs.Diff.regressions findings <> [] then exit 3
  in
  let exits = Cmd.Exit.info 3 ~doc:"on regressions past the configured thresholds." :: exits in
  Cmd.v
    (Cmd.info "diff"
       ~doc:"Diff two run artifact directories (from --obs-dir): counter deltas, span-tree \
             wall-clock, histogram quantile shifts, convergence divergence."
       ~exits)
    Term.(
      ret
        (const (fun a b th q () -> wrap (run a b th q))
        $ side 0 "A" "Baseline artifact directory." $ side 1 "B" "Candidate artifact directory."
        $ diff_thresholds_term $ quiet $ const ()))

let obs_cmd =
  Cmd.group (Cmd.info "obs" ~doc:"Compare run artifacts written by --obs-dir." ~exits)
    [ obs_diff_cmd ]

let () =
  let doc = "optimized input probabilities for random tests (Wunderlich, DAC 1987)" in
  let info = Cmd.info "optprob" ~version:"1.0.0" ~doc in
  let group =
    Cmd.group info
      [ list_cmd; generate_cmd; simplify_cmd; analyze_cmd; optimize_cmd; simulate_cmd;
        run_cmd; atpg_cmd; obs_cmd ]
  in
  exit (Cmd.eval group)
