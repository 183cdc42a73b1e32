(* CI smoke benchmark for the oracle protocol's fused cofactor path and
   the wide-word ppsfp fault simulator.

   Asserts, on the s1 comparator with the COP engine:
   1. [Oracle.cofactor_pair] is bit-identical to the two independent
      subset queries it replaces;
   2. the fused (incremental damage-cone) path is faster than the
      two-query baseline.  Each timed sweep, on either side, starts from
      a fresh plan, as every sweep of [Optimize.run] does, so the
      per-plan cone work is timed too.  Both sides' per-sweep latencies
      are sampled in interleaved pairs, so that both see the same host
      phases.  Two gates judge them: the median of the per-pair
      fused/baseline ratios must not exceed 1.0, and the [Rt_obs.Diff]
      engine itself, run on both sides written as --obs-dir style run
      artifacts (each sample a [smoke.sweep] span), must not flag the
      fused side's exact p50 or p99 past the default 1.5x quantile
      threshold, so the bench exercises the same regression analyzer CI
      relies on;
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
      beats the narrow one (W=1, timed in interleaved pairs with W=8)
      by enough that obs diff, run with the narrow side as candidate
      against the wide baseline, flags the narrow side's [smoke.ppsfp]
      span quantiles as a regression at 1.25x.  Inverting the roles
      turns the analyzer into a speedup lock: losing the width win makes
      the gate fail.  The width axis is chosen because it does not depend on host
      core count, unlike the jobs axis;
   6. a second jobs=4 run spawns no additional domains
      ([parallel.spawns] flat), i.e. the parked domains persist.

   Next to the gates it prints, ungated, the kernels' unit costs (ns per
   live fault-word, the median fused cofactor sweep), the front end's
   ([Passes.run] and [Collapse.collapsed_universe] on c6288ish) and the
   exact engine's construction ([Detect.make] at 2M nodes on s1 and
   c7552ish, with its node count).

   The timed sections run with recording OFF so the numbers measure the
   oracle/simulator, not the telemetry.  Artifacts land under an optional
   argv root (default _obs/smoke) as <root>/{baseline,fused} and
   <root>/{ppsfp-wide,ppsfp-narrow}, ready for CI upload or a manual
   `optprob obs diff`.

   Exits nonzero on any violation.  Run with: make bench-smoke *)

module Oracle = Rt_testability.Oracle
module Pipeline = Rt_pipeline
module Pconfig = Rt_pipeline.Config

let rounds = 3

(* Calls per round: a cofactor sweep of s1 takes about a millisecond, so
   its gates take 300 samples per side, and p99 is the fourth-largest
   sample rather than the maximum, which one preempted call could set
   on either side.  The ppsfp runs take 102 per side, past the 100 events
   [obs diff] needs before it judges a span's quantiles at all. *)
let sweep_iters = 100
let ppsfp_iters = 34
let front_end_iters = 51
let bdd_iters = 11

(* Time [f] and [g] over [rounds * iters] pairs of back-to-back calls,
   alternating which of the two runs first, so both sample sets see the
   same host phases and neither side always runs on the warmer cache.
   Returns, per side, the best-of-rounds total (seconds) and the per-call
   durations (microseconds) in pair order. *)
let time_pairs ~iters f g =
  let time h =
    let t = Rt_util.Stats.timer_start () in
    h ();
    Rt_util.Stats.timer_elapsed t
  in
  let n = rounds * iters in
  let sf = Array.make n 0.0 and sg = Array.make n 0.0 in
  for i = 0 to n - 1 do
    if i land 1 = 0 then begin
      sf.(i) <- time f;
      sg.(i) <- time g
    end
    else begin
      sg.(i) <- time g;
      sf.(i) <- time f
    end
  done;
  let side s =
    let best = ref Float.infinity in
    for r = 0 to rounds - 1 do
      best := Float.min !best (Array.fold_left ( +. ) 0.0 (Array.sub s (r * iters) iters))
    done;
    (!best, Array.map (fun dt -> dt *. 1e6) s)
  in
  (side sf, side sg)

let median a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s.(Array.length s / 2)

(* Median over [rounds * sweep_iters] pairs of the ratio [on / off]. *)
let paired_ratio ~off ~on =
  let (_, s_off), (_, s_on) = time_pairs ~iters:sweep_iters off on in
  median (Array.map2 (fun a b -> b /. a) s_off s_on)

(* Record each timed sample (us) as one [name] span ending now, so the
   written artifact's trace carries the samples and obs diff reads their
   exact quantiles. *)
let record_samples name samples =
  Array.iter (fun us -> Rt_obs.span_end ~cat:"smoke" name (Rt_obs.now_us () -. us)) samples

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
  let fused plan input = Oracle.cofactor_pair oracle plan ~input ~x in
  let baseline plan input =
    let x' = Array.copy x in
    x'.(input) <- 0.0;
    let pf0 = Oracle.probs_plan oracle plan x' in
    x'.(input) <- 1.0;
    let pf1 = Oracle.probs_plan oracle plan x' in
    (pf0, pf1)
  in
  (* Correctness first: every input's fused pair must equal the baseline
     bit for bit. *)
  let plan = Oracle.plan oracle hard in
  let mismatches = ref 0 in
  for i = 0 to n_inputs - 1 do
    let f0, f1 = fused plan i in
    let b0, b1 = baseline plan i in
    if not (f0 = b0 && f1 = b1) then incr mismatches
  done;
  if !mismatches > 0 then begin
    Printf.eprintf "bench-smoke FAIL: %d/%d inputs with non-identical cofactors\n" !mismatches
      n_inputs;
    exit 1
  end;
  (* Timing: sweep all inputs per iteration, like one PREPARE pass, on a
     fresh plan for the hard prefix, as [Optimize.run] makes one per sweep.
     Recording stays OFF here — these numbers are the oracle alone. *)
  let sweep f () =
    let plan = Oracle.plan oracle (Array.copy hard) in
    for i = 0 to n_inputs - 1 do
      ignore (Sys.opaque_identity (f plan i))
    done
  in
  ignore (Sys.opaque_identity (sweep fused ()));
  ignore (Sys.opaque_identity (sweep baseline ()));
  (* Interleaved pairs, so that a host phase cannot land on one side
     only and flip the p99 gate. *)
  let (t_fused, s_fused), (t_base, s_base) =
    time_pairs ~iters:sweep_iters (sweep fused) (sweep baseline)
  in
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
    record_samples "smoke.sweep" samples;
    let dir = Filename.concat out_root side in
    Rt_obs.Artifact.write ~dir ~manifest:(manifest side) ();
    Rt_obs.clear ();
    dir
  in
  let dir_base = write "baseline" s_base in
  let dir_fused = write "fused" s_fused in
  Rt_obs.set_enabled false;
  let diff = Rt_obs.Diff.compare (read_run dir_base) (read_run dir_fused) in
  let quantile_regressions name diff =
    List.filter
      (fun f -> f.Rt_obs.Diff.kind = "quantile" && f.Rt_obs.Diff.name = name)
      (Rt_obs.Diff.regressions diff)
  in
  let regressions = quantile_regressions "smoke.sweep" diff in
  let ratio = t_fused /. t_base in
  let pair_ratio = median (Array.map2 (fun f b -> f /. b) s_fused s_base) in
  Printf.printf "bench-smoke (s1, cop, %d hard faults, %d inputs):\n" (Array.length hard) n_inputs;
  Printf.printf "  fused cofactor_pair sweep:  %8.3f ms\n" (t_fused *. 1000.0 /. Float.of_int sweep_iters);
  Printf.printf "  2x probs_plan sweep:        %8.3f ms\n" (t_base *. 1000.0 /. Float.of_int sweep_iters);
  Printf.printf "  ratio (fused / baseline):   %8.3f (median of %d pairs: %.3f)\n" ratio
    (rounds * sweep_iters) pair_ratio;
  Printf.printf "  telemetry-on overhead:      %8.3f x (median of %d paired off/on sweeps)\n"
    obs_ratio (rounds * sweep_iters);
  Printf.printf "  artifacts:                  %s {baseline,fused}\n" out_root;
  Rt_obs.Diff.pp_report Format.std_formatter diff;
  if regressions <> [] then begin
    Printf.eprintf "bench-smoke FAIL: obs diff flags the fused sweep's quantiles as a regression\n";
    exit 1
  end;
  if pair_ratio > 1.0 then begin
    Printf.eprintf "bench-smoke FAIL: fused/baseline median pair ratio %.3f > 1.0\n" pair_ratio;
    exit 1
  end;
  if obs_ratio > 1.5 then begin
    Printf.eprintf "bench-smoke FAIL: telemetry overhead %.3fx > 1.5x\n" obs_ratio;
    exit 1
  end;
  (* --- front end ----------------------------------------------------------- *)
  (* The front end's unit costs, printed next to the kernels' and not
     gated: the netlist passes to fixpoint and fault collapsing on the
     full c6288ish.  Timed before any jobs > 1 run starts worker domains,
     which every minor collection would then have to stop. *)
  let raw = Pconfig.load_circuit (Pconfig.Builtin "c6288ish") in
  let opt, _, _ = Rt_circuit.Passes.run raw in
  let median_us f =
    median
      (Array.init front_end_iters (fun _ ->
           let t = Rt_util.Stats.timer_start () in
           ignore (Sys.opaque_identity (f ()));
           Rt_util.Stats.timer_elapsed t *. 1e6))
  in
  let t_passes = median_us (fun () -> Rt_circuit.Passes.run raw) in
  let t_collapse = median_us (fun () -> Rt_fault.Collapse.collapsed_universe opt) in
  (* The exact engine's construction at T1's node limit, also before any
     worker domain exists: it allocates heavily. *)
  let bdd_build name =
    let c = Pconfig.load_circuit (Pconfig.Builtin name) in
    let faults = Rt_fault.Collapse.collapsed_universe c in
    let engine = Rt_testability.Detect.Bdd_exact { node_limit = 2_000_000 } in
    let label = Oracle.describe (Rt_testability.Detect.make engine c faults) in
    let times =
      Array.init bdd_iters (fun _ ->
          let t = Rt_util.Stats.timer_start () in
          ignore (Sys.opaque_identity (Rt_testability.Detect.make engine c faults));
          Rt_util.Stats.timer_elapsed t *. 1e3)
    in
    (name, median times, label)
  in
  let bdd_builds = List.map bdd_build [ "s1"; "c7552ish" ] in
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
  let (t_narrow, s_narrow), (t_wide, s_wide) =
    time_pairs ~iters:ppsfp_iters
      (fun () -> ignore (sim ~jobs:1 ~block_words:1 ~drop:false ()))
      (fun () -> ignore (sim ~jobs:1 ~block_words:8 ~drop:false ()))
  in
  (* One extra (untimed) recorded run per side puts the kernel counters —
     ppsfp.batches, parallel.* — next to the timed samples in each
     artifact, so obs diff also sees the 8x good-machine-pass blowup of
     the narrow side. *)
  let write_ppsfp side samples ~block_words =
    record_samples "smoke.ppsfp" samples;
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
     W=8.  If a change erodes the width win below that bar, no quantile
     finding is emitted for [smoke.ppsfp] and the gate fails. *)
  let ppsfp_thresholds = { Rt_obs.Diff.default with quantile_ratio = 1.25 } in
  let ppsfp_diff =
    Rt_obs.Diff.compare ~thresholds:ppsfp_thresholds (read_run dir_wide) (read_run dir_narrow)
  in
  let ppsfp_regressions = quantile_regressions "smoke.ppsfp" ppsfp_diff in
  let width_ratio = t_narrow /. t_wide in
  (* Domain persistence: after a first jobs=4 run has spawned
     [Parallel.sweep]'s domains, a second run must not spawn any more. *)
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
  Printf.printf "  narrow W=1 run:             %8.3f ms\n" (t_narrow *. 1000.0 /. Float.of_int ppsfp_iters);
  Printf.printf "  wide   W=8 run:             %8.3f ms\n" (t_wide *. 1000.0 /. Float.of_int ppsfp_iters);
  Printf.printf "  width speedup (W1 / W8):    %8.3f x\n" width_ratio;
  (* The kernel's cost per unit of work: a no-drop run propagates every
     fault over every word of every block. *)
  let ns_per_fault_word t ~block_words =
    let block = 64 * block_words in
    let words = Array.length mfaults * block_words * ((512 + block - 1) / block) in
    t *. 1e9 /. Float.of_int (ppsfp_iters * words)
  in
  Printf.printf "  ns per live fault-word W=1: %8.1f ns\n" (ns_per_fault_word t_narrow ~block_words:1);
  Printf.printf "  ns per live fault-word W=8: %8.1f ns\n" (ns_per_fault_word t_wide ~block_words:8);
  (* The other hot kernel's unit cost, recorded next to ppsfp's and not
     gated: one PREPARE sweep of fused cofactor pairs on s1. *)
  Printf.printf "  fused cofactor sweep (s1):  %8.1f us median of %d\n" (median s_fused)
    (Array.length s_fused);
  Printf.printf "  Passes.run (c6288ish):      %8.1f us median of %d\n" t_passes front_end_iters;
  Printf.printf "  collapse (c6288ish):        %8.1f us median of %d\n" t_collapse front_end_iters;
  List.iter
    (fun (name, ms, label) ->
      Printf.printf "  bdd build (%s): %*s%8.1f ms median of %d, %s\n" name
        (14 - String.length name) "" ms bdd_iters label)
    bdd_builds;
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
  Printf.printf "bench-smoke OK\n"
