(* CI smoke benchmark for the oracle protocol's fused cofactor path and
   the wide-word ppsfp fault simulator.

   Asserts, on the s1 comparator with the COP engine:
   1. [Oracle.cofactor_pair] is bit-identical to the two independent
      subset queries it replaces;
   2. the fused (incremental damage-cone) path is not slower than 1.5x
      the two-query baseline.  The gate is the [Rt_obs.Diff] engine itself:
      both sides' per-sweep latencies are written as --obs-dir style run
      artifacts and diffed with the default 1.5x quantile threshold, so
      the bench exercises the same regression analyzer CI relies on;
   3. enabling telemetry does not slow the fused sweep beyond a lenient
      1.5x band (the disabled path is a single atomic load).  Off and on
      sweeps are interleaved in pairs and the gate is the median of the
      per-pair ratios, so host drift between two timing blocks cannot
      trip it.

   And, on the 8x8 multiplier:
   4. [Fault_sim.simulate] stats are bit-identical across
      (jobs, block-words) combinations, including the defaults;
   5. on the no-drop workload (every fault stays live, the hard-fault
      regime the paper's optimization targets) the wide datapath (W=8)
      beats the narrow one (W=1) by enough that obs diff, run with the
      narrow side as candidate against the wide baseline, flags the
      narrow path as a regression.  Inverting the roles turns the
      analyzer into a speedup lock: losing the width win makes the gate
      fail.  The width axis is chosen because it does not depend on host
      core count, unlike the jobs axis;
   6. a second jobs=4 run spawns no additional domains
      ([parallel.spawns] flat), i.e. the domain pool persists.

   Finally the whole smoke run is ingested into the persistent run
   registry (argv.(2), default the OPTPROB_OBS_REGISTRY/_obs/registry
   convention; pass "-" to skip):
   7. the first ever run bootstrap-promotes itself as the baseline;
      every later run is diffed against the promoted baseline record and
      fails on histogram (3x, cross-runner noise allowance) or counter
      (1.5x, counters are deterministic) regressions, and the
      smoke.sweep_us.p50 trend over the registry history is printed with
      its step-change verdict.

   The timed sections run with recording OFF so the numbers measure the
   oracle/simulator, not the telemetry.  Artifacts land under an optional
   argv root (default _obs/smoke) as <root>/{baseline,fused},
   <root>/{ppsfp-wide,ppsfp-narrow} and <root>/run (the ingested one),
   ready for CI upload or a manual `optprob obs diff`.

   Exits nonzero on any violation.  Run with: make bench-smoke *)

module Oracle = Rt_testability.Oracle
module Pipeline = Rt_pipeline
module Pconfig = Rt_pipeline.Config

let rounds = 3
let iters = 20

(* Time [f] repeatedly; returns the best-of-rounds total and the per-call
   durations (microseconds) of every call across all rounds. *)
let time_collect f =
  let best = ref Float.infinity in
  let samples = ref [] in
  for _ = 1 to rounds do
    let t0 = Rt_util.Stats.timer_start () in
    for _ = 1 to iters do
      let t = Rt_util.Stats.timer_start () in
      f ();
      samples := Rt_util.Stats.timer_elapsed t *. 1e6 :: !samples
    done;
    let dt = Rt_util.Stats.timer_elapsed t0 in
    if dt < !best then best := dt
  done;
  (!best, Array.of_list (List.rev !samples))

let median a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s.(Array.length s / 2)

(* Median over [rounds * iters] pairs of the ratio [on / off], timing one
   call of each back to back; the pair order alternates so neither side
   always runs on the warmer cache. *)
let paired_ratio ~off ~on =
  let time f =
    let t = Rt_util.Stats.timer_start () in
    f ();
    Rt_util.Stats.timer_elapsed t
  in
  median
    (Array.init (rounds * iters) (fun i ->
         if i land 1 = 0 then
           let a = time off in
           time on /. a
         else
           let b = time on in
           b /. time off))

(* Parse an artifact directory this smoke just wrote; an unreadable one is
   a harness failure. *)
let read_run dir =
  match Rt_obs.Artifact.read dir with
  | Ok r -> r
  | Error e ->
    Printf.eprintf "bench-smoke FAIL: %s\n" e;
    exit 1

let () =
  let out_root = if Array.length Sys.argv > 1 then Sys.argv.(1) else "_obs/smoke" in
  let t_run = Rt_util.Stats.timer_start () in
  (* The pipeline supplies the workload: a COP analysis of s1 at a skewed
     weight vector, and the hard-fault prefix certified by NORMALIZE. *)
  let n_inputs =
    Array.length
      (Rt_circuit.Netlist.inputs
         (Pconfig.load_circuit (Pconfig.Builtin "s1")))
  in
  let x = Array.init n_inputs (fun i -> 0.3 +. (0.4 *. Float.of_int (i mod 2))) in
  let ctx =
    Pipeline.create
      (Pconfig.exn
         (Pconfig.make ~engine:"cop" ~weights:(Pconfig.Weights_vector x) ~circuit:"s1" ()))
  in
  let oracle = Pipeline.oracle ctx in
  let hard = (Pipeline.normalized ctx).Pipeline.value.Pipeline.hard in
  let plan = Oracle.plan oracle hard in
  let fused input = Oracle.cofactor_pair oracle plan ~input ~x in
  let baseline input =
    let x' = Array.copy x in
    x'.(input) <- 0.0;
    let pf0 = Oracle.probs_subset oracle hard x' in
    x'.(input) <- 1.0;
    let pf1 = Oracle.probs_subset oracle hard x' in
    (pf0, pf1)
  in
  (* Correctness first: every input's fused pair must equal the baseline
     bit for bit. *)
  let mismatches = ref 0 in
  for i = 0 to n_inputs - 1 do
    let f0, f1 = fused i in
    let b0, b1 = baseline i in
    if not (f0 = b0 && f1 = b1) then incr mismatches
  done;
  if !mismatches > 0 then begin
    Printf.eprintf "bench-smoke FAIL: %d/%d inputs with non-identical cofactors\n" !mismatches
      n_inputs;
    exit 1
  end;
  (* Timing: sweep all inputs per iteration, like one PREPARE pass.
     Recording stays OFF here — these numbers are the oracle alone. *)
  let sweep f () =
    for i = 0 to n_inputs - 1 do
      ignore (Sys.opaque_identity (f i))
    done
  in
  ignore (Sys.opaque_identity (sweep fused ()));
  ignore (Sys.opaque_identity (sweep baseline ()));
  let t_fused, s_fused = time_collect (sweep fused) in
  let t_base, s_base = time_collect (sweep baseline) in
  (* Telemetry-on overhead of the same fused sweep, as the median of
     interleaved off/on pairs.  The band is lenient (1.5x) because the
     absolute times are tiny and CI timers are noisy; the point is to
     catch the disabled/enabled paths swapping cost. *)
  Rt_obs.clear ();
  let obs_ratio =
    paired_ratio ~off:(sweep fused)
      ~on:(fun () ->
        Rt_obs.set_enabled true;
        sweep fused ();
        Rt_obs.set_enabled false)
  in
  Rt_obs.clear ();
  Rt_obs.set_enabled true;
  (* Write both sides as run artifacts and let obs diff judge the perf
     gate: baseline dir = 2x subset queries, candidate dir = fused. *)
  let manifest side =
    Rt_obs.Artifact.make_manifest ~engine:"cop"
      ~argv:[| "bench-smoke"; side |]
      ~wall_s:(Rt_util.Stats.timer_elapsed t_run)
      ()
  in
  let write side samples =
    let h = Rt_obs.histogram "smoke.sweep_us" in
    Array.iter (Rt_obs.observe h) samples;
    let dir = Filename.concat out_root side in
    Rt_obs.Artifact.write ~dir ~manifest:(manifest side) ();
    Rt_obs.clear ();
    dir
  in
  let dir_base = write "baseline" s_base in
  let dir_fused = write "fused" s_fused in
  Rt_obs.set_enabled false;
  let diff = Rt_obs.Diff.compare (read_run dir_base) (read_run dir_fused) in
  let regressions = Rt_obs.Diff.regressions diff in
  let ratio = t_fused /. t_base in
  Printf.printf "bench-smoke (s1, cop, %d hard faults, %d inputs):\n" (Array.length hard) n_inputs;
  Printf.printf "  fused cofactor_pair sweep:  %8.3f ms\n" (t_fused *. 1000.0 /. Float.of_int iters);
  Printf.printf "  2x probs_subset sweep:      %8.3f ms\n" (t_base *. 1000.0 /. Float.of_int iters);
  Printf.printf "  ratio (fused / baseline):   %8.3f\n" ratio;
  Printf.printf "  telemetry-on overhead:      %8.3f x (median of %d paired off/on sweeps)\n"
    obs_ratio (rounds * iters);
  Printf.printf "  artifacts:                  %s {baseline,fused}\n" out_root;
  Rt_obs.Diff.pp_report Format.std_formatter diff;
  if regressions <> [] then begin
    Printf.eprintf "bench-smoke FAIL: obs diff flags the fused path as a regression\n";
    exit 1
  end;
  if obs_ratio > 1.5 then begin
    Printf.eprintf "bench-smoke FAIL: telemetry overhead %.3fx > 1.5x\n" obs_ratio;
    exit 1
  end;
  (* --- wide-word ppsfp ----------------------------------------------------- *)
  let mctx = Pipeline.create (Pconfig.exn (Pconfig.make ~engine:"cop" ~circuit:"c6288ish:8" ())) in
  let mult = Pipeline.circuit mctx in
  let mfaults = Pipeline.fault_list mctx in
  let m_inputs = Array.length (Rt_circuit.Netlist.inputs mult) in
  let sim ~jobs ~block_words ~drop () =
    let rng = Rt_util.Rng.create 7 in
    let source = Rt_sim.Pattern.equiprobable rng ~n_inputs:m_inputs in
    Rt_sim.Fault_sim.simulate ~jobs ~block_words ~drop mult mfaults ~source ~n_patterns:512
  in
  (* Identity first: every (jobs, W) must reproduce the (1, 1) stats bit
     for bit — same invariant the qcheck suite enforces, re-checked here
     on the bench workload the timing gate runs on. *)
  List.iter
    (fun drop ->
      let reference = sim ~jobs:1 ~block_words:1 ~drop () in
      List.iter
        (fun (jobs, block_words) ->
          let s = sim ~jobs ~block_words ~drop () in
          if
            s.Rt_sim.Fault_sim.first_detect <> reference.Rt_sim.Fault_sim.first_detect
            || s.Rt_sim.Fault_sim.detect_count <> reference.Rt_sim.Fault_sim.detect_count
            || s.Rt_sim.Fault_sim.patterns_run <> reference.Rt_sim.Fault_sim.patterns_run
          then begin
            Printf.eprintf "bench-smoke FAIL: ppsfp stats differ at jobs=%d W=%d drop=%b\n"
              jobs block_words drop;
            exit 1
          end)
        [ (1, 4); (4, 1); (4, 4); (4, 8) ])
    [ true; false ];
  (* Timing on the no-drop workload: with drop on, a detected fault
     leaves the live set between words, so narrow blocks shed work
     faster and the comparison would measure drop luck, not the
     datapath.  No-drop keeps the per-pattern work identical on both
     sides — and is exactly the hard-fault regime (detection
     probabilities near zero) the optimized input probabilities are
     computed for. *)
  let t_narrow, s_narrow =
    time_collect (fun () -> ignore (sim ~jobs:1 ~block_words:1 ~drop:false ()))
  in
  let t_wide, s_wide =
    time_collect (fun () -> ignore (sim ~jobs:1 ~block_words:8 ~drop:false ()))
  in
  (* One extra (untimed) recorded run per side puts the kernel counters —
     ppsfp.batches, parallel.* — next to the latency histogram in each
     artifact, so obs diff also sees the 8x good-machine-pass blowup of
     the narrow side. *)
  let write_ppsfp side samples ~block_words =
    let h = Rt_obs.histogram "smoke.ppsfp_us" in
    Array.iter (Rt_obs.observe h) samples;
    ignore (sim ~jobs:1 ~block_words ~drop:false ());
    let dir = Filename.concat out_root side in
    Rt_obs.Artifact.write ~dir ~manifest:(manifest side) ();
    Rt_obs.clear ();
    dir
  in
  Rt_obs.set_enabled true;
  Rt_obs.clear ();
  let dir_wide = write_ppsfp "ppsfp-wide" s_wide ~block_words:8 in
  let dir_narrow = write_ppsfp "ppsfp-narrow" s_narrow ~block_words:1 in
  Rt_obs.set_enabled false;
  (* Roles inverted on purpose: wide is the baseline, narrow the
     candidate, and the gate requires obs diff to FLAG a latency
     regression — i.e. W=1 must be at least [quantile_ratio] slower than
     W=8.  If a change erodes the width win below that bar, no histogram
     finding is emitted and the gate fails. *)
  let ppsfp_thresholds = { Rt_obs.Diff.default with quantile_ratio = 1.25 } in
  let ppsfp_diff =
    Rt_obs.Diff.compare ~thresholds:ppsfp_thresholds (read_run dir_wide) (read_run dir_narrow)
  in
  let ppsfp_regressions =
    List.filter
      (fun f -> f.Rt_obs.Diff.kind = "histogram")
      (Rt_obs.Diff.regressions ppsfp_diff)
  in
  let width_ratio = t_narrow /. t_wide in
  (* Pool persistence: after a first jobs=4 run has warmed the pool, a
     second run must not spawn any further domains. *)
  Rt_obs.set_enabled true;
  Rt_obs.clear ();
  let spawns () = Rt_obs.value (Rt_obs.counter "parallel.spawns") in
  ignore (sim ~jobs:4 ~block_words:4 ~drop:true ());
  let spawns_warm = spawns () in
  ignore (sim ~jobs:4 ~block_words:4 ~drop:true ());
  let spawns_after = spawns () in
  Rt_obs.clear ();
  Rt_obs.set_enabled false;
  Printf.printf "ppsfp (c6288ish:8, %d faults, 512 patterns, no-drop):\n" (Array.length mfaults);
  Printf.printf "  narrow W=1 run:             %8.3f ms\n" (t_narrow *. 1000.0 /. Float.of_int iters);
  Printf.printf "  wide   W=8 run:             %8.3f ms\n" (t_wide *. 1000.0 /. Float.of_int iters);
  Printf.printf "  width speedup (W1 / W8):    %8.3f x\n" width_ratio;
  Printf.printf "  domain spawns warm/after:   %d / %d\n" spawns_warm spawns_after;
  Printf.printf "  artifacts:                  %s {ppsfp-wide,ppsfp-narrow}\n" out_root;
  Rt_obs.Diff.pp_report Format.std_formatter ppsfp_diff;
  if ppsfp_regressions = [] then begin
    Printf.eprintf
      "bench-smoke FAIL: obs diff does not flag W=1 as a regression vs W=8 \
       (width speedup %.3fx below the 1.25x gate)\n"
      width_ratio;
    exit 1
  end;
  if spawns_after > spawns_warm then begin
    Printf.eprintf "bench-smoke FAIL: second jobs=4 run spawned %d extra domains\n"
      (spawns_after - spawns_warm);
    exit 1
  end;
  (* --- run registry ----------------------------------------------------------
     Ingest the whole smoke run into the persistent registry and gate
     against the promoted baseline record.  The first run ever seen
     bootstrap-promotes itself; after that, histograms get a lenient 3x
     band (cross-runner latency noise) while counters — deterministic for
     a fixed workload — keep the default 1.5x. *)
  let module Reg = Rt_obs_registry in
  let registry =
    if Array.length Sys.argv > 2 then Sys.argv.(2) else Reg.default_dir ()
  in
  if registry <> "-" then begin
    Rt_obs.set_enabled true;
    Rt_obs.clear ();
    let h_sweep = Rt_obs.histogram "smoke.sweep_us" in
    Array.iter (Rt_obs.observe h_sweep) s_fused;
    let h_ppsfp = Rt_obs.histogram "smoke.ppsfp_us" in
    Array.iter (Rt_obs.observe h_ppsfp) s_wide;
    (* One recorded pass per kernel puts the deterministic counters
       (oracle.*, ppsfp.batches) next to the latency histograms. *)
    sweep fused ();
    ignore (sim ~jobs:1 ~block_words:8 ~drop:false ());
    let dir_run = Filename.concat out_root "run" in
    Rt_obs.Artifact.write ~dir:dir_run
      ~manifest:
        (Rt_obs.Artifact.make_manifest ~engine:"cop" ~circuit:"s1" ~block_words:8
           ~argv:Sys.argv
           ~wall_s:(Rt_util.Stats.timer_elapsed t_run)
           ())
      ();
    Rt_obs.clear ();
    Rt_obs.set_enabled false;
    let id =
      match Reg.ingest ~registry ~obs_dir:dir_run () with
      | Ok id -> id
      | Error e ->
        Printf.eprintf "bench-smoke FAIL: registry ingest: %s\n" e;
        exit 1
    in
    Printf.printf "registry (%s):\n" registry;
    Printf.printf "  ingested:                   %s\n" id;
    (match Reg.promoted ~registry with
     | None -> (
       match Reg.promote ~registry id with
       | Ok () -> Printf.printf "  baseline:                   %s (bootstrap promote)\n" id
       | Error e ->
         Printf.eprintf "bench-smoke FAIL: baseline promote: %s\n" e;
         exit 1)
     | Some base when base = id -> ()
     | Some base ->
       let base_run =
         match Reg.load ~registry base with
         | Ok r -> r.Reg.r_run
         | Error e ->
           Printf.eprintf "bench-smoke FAIL: baseline load: %s\n" e;
           exit 1
       in
       let thresholds = { Rt_obs.Diff.default with quantile_ratio = 3.0; span_ratio = 3.0 } in
       let base_diff = Rt_obs.Diff.compare ~thresholds base_run (read_run dir_run) in
       Printf.printf "  baseline:                   %s\n" base;
       Rt_obs.Diff.pp_report Format.std_formatter base_diff;
       (* Gate on what is stable across runners: work counters (exact for a
          fixed workload, 1.5x default band) and the two aggregate smoke.*
          latency histograms at 3x.  Kernel-internal micro-latency
          histograms (p99 buckets of a few us) and span wall-clocks stay
          report-only — they swing more than any honest band under CI
          noise. *)
       let is_smoke name =
         String.length name >= 6 && String.sub name 0 6 = "smoke."
       in
       let gated =
         List.filter
           (fun f ->
             f.Rt_obs.Diff.kind = "counter"
             || (f.Rt_obs.Diff.kind = "histogram" && is_smoke f.Rt_obs.Diff.name))
           (Rt_obs.Diff.regressions base_diff)
       in
       if gated <> [] then begin
         Printf.eprintf
           "bench-smoke FAIL: %d regression(s) vs promoted baseline %s\n"
           (List.length gated) base;
         exit 1
       end);
    let series = Reg.series ~registry "smoke.sweep_us.p50" in
    let vals = Array.of_list (List.map (fun p -> p.Reg.p_value) series.Reg.s_points) in
    Printf.printf "  smoke.sweep_us.p50 trend:   %s  (%d run(s), p50 %.1f us)\n"
      (Reg.sparkline vals) (Array.length vals) series.Reg.s_p50;
    match Reg.step_changes vals with
    | [] -> ()
    | steps ->
      List.iter
        (fun s ->
          Printf.printf "  step change:                run %d/%d %s to %.1f us (median %.1f)\n"
            (s.Reg.st_index + 1) (Array.length vals)
            (if s.Reg.st_up then "up" else "down")
            s.Reg.st_value s.Reg.st_median)
        steps
  end;
  Printf.printf "bench-smoke OK\n"
