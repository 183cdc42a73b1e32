(* Rt_pipeline: golden equivalence with the pre-refactor wiring, cache
   resume semantics (qcheck), concurrent store writes, stage invalidation,
   config validation. *)

module Pipeline = Rt_pipeline
module Config = Rt_pipeline.Config
module Store = Rt_pipeline.Store
module Detect = Rt_testability.Detect
module Optimize = Rt_optprob.Optimize

let check = Alcotest.check

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "optprob-pipe-%d-%d" (Unix.getpid ()) !n)
    in
    (* Stale stores from a previous test process would fake cache hits. *)
    if Sys.file_exists dir then begin
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir
    end;
    dir

(* --- golden equivalence ------------------------------------------------------

   The pipeline's optimize path must produce bit-for-bit the weights of the
   wiring it replaced: load -> [Passes.run] -> collapse -> Detect.make ?jobs
   -> Optimize.run with the CLI's default options.  Checked for every engine
   family and for jobs 1 vs 4 (results must be jobs-independent), both with
   the default optimization passes and with --no-opt (which must reproduce
   the pre-refactor wiring exactly). *)

let golden_engines =
  [ "cop"; "cond:3"; "bdd:200000"; "stafan:2048"; "mc:2048" ]

let legacy_weights ~engine ~jobs ~opt circuit_name =
  let c =
    match Rt_circuit.Generators.by_name circuit_name with
    | Some g -> g ()
    | None -> Alcotest.failf "unknown golden circuit %s" circuit_name
  in
  let c = if opt then (fun (c, _, _) -> c) (Rt_circuit.Passes.run c) else c in
  let faults = Rt_fault.Collapse.collapsed_universe c in
  let engine_kind =
    match Config.engine_of_string engine with
    | Ok e -> e
    | Error m -> Alcotest.fail m
  in
  let oracle = Detect.make ~jobs engine_kind c faults in
  let options =
    { Optimize.default_options with
      Optimize.confidence = 0.95;
      max_sweeps = 3;
      quantize = Optimize.Grid 0.05 }
  in
  (Optimize.run ~options oracle).Optimize.weights

let pipeline_weights ~engine ~jobs ~opt_passes circuit_name =
  (* The objective is pinned to "single": the reference path above uses
     Optimize.default_options, which never reads OPTPROB_OBJECTIVE, so the
     golden comparison must not either (CI runs a ndetect:2-env leg). *)
  let cfg =
    Config.exn
      (Config.make ~engine ~confidence:0.95 ~jobs ~sweeps:3
         ~quantize:(Optimize.Grid 0.05) ~opt_passes ~objective:"single"
         ~circuit:circuit_name ())
  in
  let ctx = Pipeline.create cfg in
  (Pipeline.optimized ctx).Pipeline.value.Pipeline.opt_report.Optimize.weights

let test_golden () =
  List.iter
    (fun engine ->
      let reference =
        legacy_weights ~engine ~jobs:1 ~opt:true "c432ish"
      in
      List.iter
        (fun jobs ->
          let got =
            pipeline_weights ~engine ~jobs
              ~opt_passes:Rt_circuit.Passes.default_names "c432ish"
          in
          check
            Alcotest.(array (float 0.0))
            (Printf.sprintf "weights identical (%s, jobs=%d)" engine jobs)
            reference got)
        [ 1; 4 ])
    golden_engines

let test_golden_noopt () =
  (* --no-opt reproduces the pre-refactor wiring bit-for-bit. *)
  List.iter
    (fun engine ->
      let reference = legacy_weights ~engine ~jobs:1 ~opt:false "c432ish" in
      let got = pipeline_weights ~engine ~jobs:1 ~opt_passes:[] "c432ish" in
      check
        Alcotest.(array (float 0.0))
        (Printf.sprintf "no-opt pipeline = legacy wiring (%s)" engine)
        reference got)
    golden_engines

let test_golden_legacy_jobs () =
  (* The legacy path itself is jobs-invariant; pin that too so the golden
     reference above is unambiguous. *)
  List.iter
    (fun engine ->
      check
        Alcotest.(array (float 0.0))
        (Printf.sprintf "legacy jobs-invariant (%s)" engine)
        (legacy_weights ~engine ~jobs:1 ~opt:false "c432ish")
        (legacy_weights ~engine ~jobs:4 ~opt:false "c432ish"))
    [ "cop"; "cond:3"; "bdd:200000" ]

(* --- optimization-stage transparency -----------------------------------------

   The acceptance gate: on a netlist that is already a pass fixpoint, the
   opt_netlist stage is the identity (driver idempotence), so EVERY
   statistic — detection probabilities, optimizer weights and J-trajectory,
   ppsfp first-detect / detect-count, coverage — must be bit-identical
   between the optimized and unoptimized paths, for every engine and every
   (jobs, block_words) in {1,4} x {1,8}. *)

let bits64 = Alcotest.(array int64)
let fbits a = Array.map Int64.bits_of_float a
let lbits l = fbits (Array.of_list l)

let test_opt_transparency () =
  let base =
    match Rt_circuit.Generators.by_name "s1" with
    | Some g -> g ()
    | None -> Alcotest.fail "s1 generator missing"
  in
  let pre, _, _ = Rt_circuit.Passes.run base in
  let stats_of ~engine ~jobs ~block_words opt_passes =
    let cfg =
      Config.exn
        (Config.of_netlist ~engine ~jobs ~block_words ~sweeps:2 ~patterns:256 ~opt_passes
           ~objective:"single" ~name:"pre-optimized-s1" pre)
    in
    let t = Pipeline.create cfg in
    let a = (Pipeline.analysis t).Pipeline.value in
    let o = (Pipeline.optimized t).Pipeline.value.Pipeline.opt_report in
    let v = (Pipeline.validated t).Pipeline.value in
    (a, o, v)
  in
  List.iter
    (fun engine ->
      List.iter
        (fun (jobs, block_words) ->
          let tag fmt =
            Printf.sprintf "%s (%s, jobs=%d, W=%d)" fmt engine jobs block_words
          in
          let a1, o1, v1 =
            stats_of ~engine ~jobs ~block_words Rt_circuit.Passes.default_names
          in
          let a0, o0, v0 = stats_of ~engine ~jobs ~block_words [] in
          check bits64 (tag "pf bit-identical") (fbits a0.Pipeline.pf) (fbits a1.Pipeline.pf);
          check bits64 (tag "weights bit-identical")
            (fbits o0.Optimize.weights) (fbits o1.Optimize.weights);
          check bits64 (tag "J-trajectory bit-identical")
            (lbits o0.Optimize.j_history) (lbits o1.Optimize.j_history);
          check bits64 (tag "N-trajectory bit-identical")
            (lbits o0.Optimize.history) (lbits o1.Optimize.history);
          check Alcotest.(array int) (tag "first_detect identical")
            v0.Pipeline.first_detect v1.Pipeline.first_detect;
          check Alcotest.(array int) (tag "detect_count identical")
            v0.Pipeline.detect_count v1.Pipeline.detect_count;
          check bits64 (tag "coverage bit-identical")
            (fbits [| v0.Pipeline.coverage |]) (fbits [| v1.Pipeline.coverage |]))
        [ (1, 1); (1, 8); (4, 1); (4, 8) ])
    [ "cop"; "cond:2"; "bdd:100000"; "stafan:512"; "mc:512" ]

(* --- cache resume (qcheck) ---------------------------------------------------

   For any config, a second run against the same work dir re-executes zero
   stages. *)

let config_gen =
  QCheck.Gen.(
    let* engine = oneofl [ "cop"; "cond:2"; "bdd:100000"; "stafan:512"; "mc:512" ] in
    let* confidence = oneofl [ 0.9; 0.95; 0.99 ] in
    let* sweeps = int_range 1 3 in
    let* seed = int_range 0 10_000 in
    let* patterns = oneofl [ 128; 256 ] in
    let* quantize =
      oneofl [ Optimize.Grid 0.05; Optimize.Dyadic 3; Optimize.No_quantization ]
    in
    return (engine, confidence, sweeps, seed, patterns, quantize))

let config_print (engine, confidence, sweeps, seed, patterns, _quantize) =
  Printf.sprintf "engine=%s confidence=%.2f sweeps=%d seed=%d patterns=%d" engine confidence
    sweeps seed patterns

let cache_hit_qcheck =
  QCheck.Test.make ~name:"second run with unchanged config is 100% cache hits" ~count:10
    (QCheck.make ~print:config_print config_gen)
    (fun (engine, confidence, sweeps, seed, patterns, quantize) ->
      let work_dir = fresh_dir () in
      let cfg () =
        Config.exn
          (Config.make ~engine ~confidence ~sweeps ~seed ~patterns ~quantize ~work_dir
             ~circuit:"wide_and-8" ())
      in
      let first = Pipeline.run (Pipeline.create (cfg ())) in
      let second = Pipeline.run (Pipeline.create (cfg ())) in
      List.for_all (fun (_, hit) -> not hit) first.Pipeline.o_stages
      && Pipeline.all_cached second
      && second.Pipeline.o_report.Pipeline.digest = first.Pipeline.o_report.Pipeline.digest)

(* --- stage invalidation ------------------------------------------------------ *)

let stage_flags outcome =
  List.map (fun (name, hit) -> (name, hit)) outcome.Pipeline.o_stages

let test_seed_invalidation () =
  let work_dir = fresh_dir () in
  let cfg seed =
    Config.exn
      (Config.make ~engine:"cop" ~seed ~patterns:256 ~sweeps:2 ~work_dir ~circuit:"s1" ())
  in
  ignore (Pipeline.run (Pipeline.create (cfg 1)));
  (* Bumping the seed must re-run exactly the seed-dependent stages:
     validated (the fault-sim RNG) and report (downstream of it). *)
  let second = Pipeline.run (Pipeline.create (cfg 2)) in
  check
    Alcotest.(list (pair string bool))
    "only validated+report re-run on a seed bump"
    [ ("loaded", true); ("opt_netlist", true); ("faults", true); ("analysis", true);
      ("normalized", true); ("optimized", true); ("validated", false); ("report", false) ]
    (stage_flags second);
  (* And returning to the first seed is a full cache hit again. *)
  let third = Pipeline.run (Pipeline.create (cfg 1)) in
  check Alcotest.bool "original seed fully cached" true (Pipeline.all_cached third)

let test_engine_invalidation () =
  let work_dir = fresh_dir () in
  let cfg engine =
    Config.exn
      (Config.make ~engine ~patterns:256 ~sweeps:2 ~work_dir ~circuit:"wide_and-8" ())
  in
  ignore (Pipeline.run (Pipeline.create (cfg "cop")));
  (* mc's sampled probabilities differ from cop's exact ones, so the whole
     downstream chain re-keys. *)
  let second = Pipeline.run (Pipeline.create (cfg "mc:512")) in
  check
    Alcotest.(list (pair string bool))
    "engine change re-runs analysis and everything downstream"
    [ ("loaded", true); ("opt_netlist", true); ("faults", true); ("analysis", false);
      ("normalized", false); ("optimized", false); ("validated", false); ("report", false) ]
    (stage_flags second)

let test_engine_early_cutoff () =
  (* cop and cond are both exact on a wide AND: the re-run analysis stage
     reproduces the same normalized artifact, so content addressing stops
     the invalidation there and optimized/validated stay cached. *)
  let work_dir = fresh_dir () in
  let cfg engine =
    Config.exn
      (Config.make ~engine ~patterns:256 ~sweeps:2 ~work_dir ~circuit:"wide_and-8" ())
  in
  ignore (Pipeline.run (Pipeline.create (cfg "cop")));
  let second = Pipeline.run (Pipeline.create (cfg "cond:2")) in
  check Alcotest.(list (pair string bool)) "equivalent engine cuts off at normalized"
    [ ("loaded", true); ("opt_netlist", true); ("faults", true); ("analysis", false);
      ("normalized", false); ("optimized", true); ("validated", true); ("report", false) ]
    (stage_flags second)

let test_objective_invalidation () =
  (* Objectives occupy distinct store keys: switching re-runs the analysis
     consumers (normalized onward) but never the circuit/fault/analysis
     stages, and switching back is a full cache hit — no cross-objective
     contamination in either direction. *)
  let work_dir = fresh_dir () in
  let cfg objective =
    Config.exn
      (Config.make ~engine:"cop" ~patterns:256 ~sweeps:2 ~objective ~work_dir
         ~circuit:"s1" ())
  in
  ignore (Pipeline.run (Pipeline.create (cfg "single")));
  let second = Pipeline.run (Pipeline.create (cfg "ndetect:2")) in
  check
    Alcotest.(list (pair string bool))
    "objective change re-runs normalized onward"
    [ ("loaded", true); ("opt_netlist", true); ("faults", true); ("analysis", true);
      ("normalized", false); ("optimized", false); ("validated", false); ("report", false) ]
    (stage_flags second);
  let third = Pipeline.run (Pipeline.create (cfg "single")) in
  check Alcotest.bool "original objective fully cached" true (Pipeline.all_cached third);
  let fourth = Pipeline.run (Pipeline.create (cfg "ndetect:2")) in
  check Alcotest.bool "n-detect run fully cached too" true (Pipeline.all_cached fourth)

let test_two_stage_pipeline () =
  (* The twostage objective flows through the pipeline: the optimized stage
     carries the adaptive report and the validated stage simulates the
     chosen design's weights. *)
  let cfg =
    Config.exn
      (Config.make ~engine:"cop" ~patterns:256 ~sweeps:2 ~objective:"twostage:64"
         ~circuit:"wide_and-8" ())
  in
  let t = Pipeline.create cfg in
  let o = (Pipeline.optimized t).Pipeline.value in
  (match o.Pipeline.opt_two_stage with
   | Some ts ->
     check Alcotest.int "pinned N1" 64 ts.Optimize.ts_n1;
     check Alcotest.int "weights width" 8 (Array.length ts.Optimize.ts_weights)
   | None -> Alcotest.fail "twostage objective must produce a two-stage report");
  let r = Pipeline.run t in
  check Alcotest.string "report records the objective" "twostage:64"
    r.Pipeline.o_report.Pipeline.value.Pipeline.r_objective;
  check Alcotest.bool "report carries the two-stage summary" true
    (r.Pipeline.o_report.Pipeline.value.Pipeline.r_two_stage <> None)

let test_cache_hit_counters () =
  (* The acceptance gate's counter contract: a resumed run shows
     pipeline.stage.<name>.cache_hit = 1 and .run = 0 for every stage. *)
  let work_dir = fresh_dir () in
  let cfg () =
    Config.exn (Config.make ~engine:"cop" ~patterns:128 ~sweeps:1 ~work_dir ~circuit:"wide_and-8" ())
  in
  ignore (Pipeline.run (Pipeline.create (cfg ())));
  Rt_obs.set_enabled true;
  Rt_obs.clear ();
  ignore (Pipeline.run (Pipeline.create (cfg ())));
  let counters = Rt_obs.counters_snapshot () in
  Rt_obs.set_enabled false;
  Rt_obs.clear ();
  let value name =
    match List.assoc_opt name counters with Some v -> v | None -> -1
  in
  List.iter
    (fun stage ->
      check Alcotest.int
        (Printf.sprintf "pipeline.stage.%s.cache_hit" stage)
        1
        (value (Printf.sprintf "pipeline.stage.%s.cache_hit" stage));
      check Alcotest.int
        (Printf.sprintf "pipeline.stage.%s.run" stage)
        0
        (value (Printf.sprintf "pipeline.stage.%s.run" stage)))
    Pipeline.stage_names

(* The git revision in the stage keys is read once per context: two
   contexts built from one config key every stage alike, and the keys are
   the ones a per-stage read of the revision gives. *)
let test_contexts_share_digests () =
  let cfg =
    Config.exn (Config.make ~engine:"cop" ~patterns:128 ~sweeps:1 ~circuit:"wide_and-8" ())
  in
  let digests t =
    ignore (Pipeline.report t);
    [ (Pipeline.loaded t).Pipeline.digest;
      (Pipeline.opt_netlist t).Pipeline.digest;
      (Pipeline.faults t).Pipeline.digest;
      (Pipeline.analysis t).Pipeline.digest;
      (Pipeline.normalized t).Pipeline.digest;
      (Pipeline.validated t).Pipeline.digest;
      (Pipeline.report t).Pipeline.digest ]
  in
  let a = Pipeline.create cfg and b = Pipeline.create cfg in
  check Alcotest.(list string) "stage digests" (digests a) (digests b);
  check Alcotest.string "loaded key"
    ("mem:"
    ^ Store.key ~rev:(Rt_obs.Artifact.git_rev ()) ~stage:"loaded"
        ~parts:[ Config.circuit_key cfg.Config.circuit ])
    (Pipeline.loaded a).Pipeline.digest

let test_corrupt_artifact_is_miss () =
  let dir = fresh_dir () in
  let store = Store.create dir in
  let key = Store.key ~rev:"test" ~stage:"loaded" ~parts:[ "x" ] in
  ignore (Store.save store ~stage:"loaded" ~key [| 1; 2; 3 |]);
  (match Store.load store ~stage:"loaded" ~key with
   | Some (v, _) -> check Alcotest.(array int) "roundtrip" [| 1; 2; 3 |] v
   | None -> Alcotest.fail "expected artifact hit");
  let oc = open_out_bin (Store.path store ~stage:"loaded" ~key) in
  output_string oc "garbage";
  close_out oc;
  check Alcotest.bool "corrupt artifact reads as a miss" true
    (Store.load store ~stage:"loaded" ~key = None)

(* Two writers of one stage artifact (two runs sharing a --work-dir; here
   two domains) must not share a temp file: every save succeeds, no temp
   file is left behind, and the artifact loads back. *)
let test_concurrent_save () =
  let dir = fresh_dir () in
  let store = Store.create dir in
  let key = Store.key ~rev:"test" ~stage:"loaded" ~parts:[ "race" ] in
  let value = Array.init 4096 Fun.id in
  let writer () =
    let failures = ref 0 in
    for _ = 1 to 200 do
      try ignore (Store.save store ~stage:"loaded" ~key value) with Sys_error _ -> incr failures
    done;
    !failures
  in
  (* two spawned writers: they start within microseconds of each other *)
  let d1 = Domain.spawn writer in
  let d2 = Domain.spawn writer in
  let failures = Domain.join d1 + Domain.join d2 in
  check Alcotest.int "saves that raised" 0 failures;
  check Alcotest.(list string) "only the artifact is left"
    [ Filename.basename (Store.path store ~stage:"loaded" ~key) ]
    (Array.to_list (Sys.readdir dir));
  match Store.load store ~stage:"loaded" ~key with
  | Some (v, _) -> check Alcotest.(array int) "loads back" value v
  | None -> Alcotest.fail "artifact did not load back"

(* --- config validation ------------------------------------------------------- *)

let error_of = function
  | Error m -> m
  | Ok _ -> Alcotest.fail "expected a validation error"

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_did_you_mean_circuit () =
  let m = error_of (Config.circuit_of_string "s2x") in
  check Alcotest.bool "suggests s2" true (contains ~sub:{|did you mean "s2"|} m);
  check Alcotest.bool "lists valid names" true (contains ~sub:"c7552ish" m);
  let m = error_of (Config.circuit_of_string "antagonst") in
  check Alcotest.bool "suggests antagonist" true (contains ~sub:{|"antagonist"|} m)

let test_did_you_mean_engine () =
  let m = error_of (Config.engine_of_string "bddd") in
  check Alcotest.bool "suggests bdd" true (contains ~sub:{|did you mean "bdd"|} m);
  check Alcotest.bool "shows grammar" true (contains ~sub:"stafan:N" m);
  check Alcotest.bool "cond needs K" true
    (contains ~sub:"cond" (error_of (Config.engine_of_string "cond")));
  (match Config.engine_of_string "stafan:100" with
   | Ok (Detect.Stafan { n_patterns = 100; seed = 7 }) -> ()
   | Ok _ -> Alcotest.fail "wrong stafan parse"
   | Error m -> Alcotest.fail m);
  check Alcotest.bool "bdd node limit range" true
    (contains ~sub:"[1, 8388608]" (error_of (Config.engine_of_string "bdd:8388609")));
  (match Config.engine_of_string "bdd:8388608" with
   | Ok (Detect.Bdd_exact { node_limit = 8388608 }) -> ()
   | Ok _ -> Alcotest.fail "wrong bdd parse"
   | Error m -> Alcotest.fail m)

let test_did_you_mean_opt_passes () =
  let m = error_of (Config.opt_passes_of_string "const-folt") in
  check Alcotest.bool "suggests const-fold" true
    (contains ~sub:{|did you mean "const-fold"|} m);
  check Alcotest.bool "lists valid passes" true (contains ~sub:"dead-cone" m);
  (* the bad name is rejected even in the middle of a list *)
  let m = error_of (Config.opt_passes_of_string "dead-cone,relevell") in
  check Alcotest.bool "suggests relevel" true (contains ~sub:{|"relevel"|} m);
  (* and through the config constructor *)
  let m =
    error_of (Config.make ~opt_passes:[ "identty" ] ~circuit:"s1" ())
  in
  check Alcotest.bool "constructor suggests identity" true
    (contains ~sub:{|did you mean "identity"|} m);
  (match Config.opt_passes_of_string "none" with
   | Ok [] -> ()
   | Ok _ | Error _ -> Alcotest.fail {|"none" parses to no passes|});
  match Config.opt_passes_of_string " const-fold , identity " with
  | Ok [ "const-fold"; "identity" ] -> ()
  | Ok _ | Error _ -> Alcotest.fail "whitespace-tolerant pass list"

let test_did_you_mean_objective () =
  let m = error_of (Config.objective_of_string "singel") in
  check Alcotest.bool "suggests single" true (contains ~sub:{|did you mean "single"|} m);
  check Alcotest.bool "shows grammar" true (contains ~sub:"ndetect:K" m);
  let m = error_of (Config.objective_of_string "ndetct:2") in
  check Alcotest.bool "suggests ndetect" true (contains ~sub:{|"ndetect"|} m);
  check Alcotest.bool "K >= 1 enforced" true
    (contains ~sub:"K must be >= 1" (error_of (Config.objective_of_string "ndetect:0")));
  check Alcotest.bool "N1 >= 0 enforced" true
    (contains ~sub:"N1 must be >= 0" (error_of (Config.objective_of_string "twostage:-1")));
  (* and through the config constructor *)
  let m = error_of (Config.make ~objective:"twostge" ~circuit:"s1" ()) in
  check Alcotest.bool "constructor suggests twostage" true (contains ~sub:{|"twostage"|} m);
  (match Config.objective_of_string "single" with
   | Ok Config.Single -> ()
   | _ -> Alcotest.fail "single parses");
  (match Config.objective_of_string "ndetect:3" with
   | Ok (Config.N_detect 3) -> ()
   | _ -> Alcotest.fail "ndetect:3 parses");
  (match Config.objective_of_string "twostage" with
   | Ok (Config.Two_stage None) -> ()
   | _ -> Alcotest.fail "twostage parses");
  match Config.objective_of_string "twostage:100" with
  | Ok (Config.Two_stage (Some 100)) -> ()
  | _ -> Alcotest.fail "twostage:100 parses"

(* Out-of-range numbers are rejected up front, not deep inside a stage. *)
let test_numeric_ranges () =
  List.iter
    (fun confidence ->
      check Alcotest.bool
        (Printf.sprintf "confidence %g rejected" confidence)
        true
        (contains ~sub:"confidence must be in (0, 1)"
           (error_of (Config.make ~confidence ~circuit:"s1" ()))))
    [ 1.5; 1.0; 0.0; -0.5; Float.nan; Float.infinity ];
  check Alcotest.bool "negative patterns rejected" true
    (contains ~sub:"patterns must be >= 0"
       (error_of (Config.make ~patterns:(-5) ~circuit:"s1" ())));
  check Alcotest.bool "negative sweeps rejected" true
    (contains ~sub:"sweeps must be >= 0" (error_of (Config.make ~sweeps:(-1) ~circuit:"s1" ())));
  List.iter
    (fun (quantize, sub) ->
      check Alcotest.bool sub true (contains ~sub (error_of (Config.make ~quantize ~circuit:"s1" ()))))
    Rt_optprob.Optimize.
      [ (Grid 2.0, "grid must be in (0, 0.5)"); (Grid 0.5, "grid must be in (0, 0.5)");
        (Grid 0.0, "grid must be in (0, 0.5)"); (Dyadic 0, "dyadic bits must be in [1, 30]");
        (Dyadic 31, "dyadic bits must be in [1, 30]") ];
  List.iter
    (fun engine ->
      check Alcotest.bool (engine ^ " rejected") true
        (contains ~sub:"K must be in [1, 16]" (error_of (Config.make ~engine ~circuit:"s1" ()))))
    [ "cond:17"; "cond:20" ];
  check Alcotest.bool "cond:16 accepted" true
    (Result.is_ok (Config.make ~engine:"cond:16" ~circuit:"s1" ()));
  match Config.make ~confidence:0.5 ~patterns:0 ~circuit:"s1" () with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m

let test_edit_distance () =
  check Alcotest.int "identical" 0 (Config.edit_distance "cop" "cop");
  check Alcotest.int "one substitution" 1 (Config.edit_distance "bdd" "bdd:");
  check Alcotest.int "classic" 3 (Config.edit_distance "kitten" "sitting")

let test_valid_circuits_parse () =
  List.iter
    (fun name ->
      match Config.circuit_of_string name with
      | Ok src -> check Alcotest.string "name roundtrip" name (Config.circuit_name src)
      | Error m -> Alcotest.fail m)
    [ "s1"; "s2:20"; "c6288ish:4"; "wide_and-8"; "antagonist" ]

let () =
  Alcotest.run "rt_pipeline"
    [ ( "golden",
        [ Alcotest.test_case "pipeline = legacy wiring + passes, all engines, jobs 1/4" `Slow
            test_golden;
          Alcotest.test_case "no-opt pipeline = pre-refactor wiring, all engines" `Slow
            test_golden_noopt;
          Alcotest.test_case "legacy path jobs-invariant" `Slow test_golden_legacy_jobs ] );
      ( "opt-transparency",
        [ Alcotest.test_case
            "opt on/off bit-identical on a fixpoint netlist (engines x jobs x W)" `Slow
            test_opt_transparency ] );
      ( "cache",
        [ QCheck_alcotest.to_alcotest cache_hit_qcheck;
          Alcotest.test_case "cache-hit counters on resume" `Quick test_cache_hit_counters;
          Alcotest.test_case "contexts from one config share digests" `Quick
            test_contexts_share_digests;
          Alcotest.test_case "corrupt artifact is a miss" `Quick test_corrupt_artifact_is_miss;
          Alcotest.test_case "concurrent saves of one artifact" `Quick test_concurrent_save ] );
      ( "invalidation",
        [ Alcotest.test_case "seed bump re-runs exactly validated+report" `Quick
            test_seed_invalidation;
          Alcotest.test_case "engine change re-runs analysis onward" `Quick
            test_engine_invalidation;
          Alcotest.test_case "equivalent engine early-cuts-off after normalized" `Quick
            test_engine_early_cutoff;
          Alcotest.test_case "objective change re-keys, no cross-hits" `Quick
            test_objective_invalidation;
          Alcotest.test_case "twostage objective flows through the pipeline" `Quick
            test_two_stage_pipeline ] );
      ( "validation",
        [ Alcotest.test_case "circuit did-you-mean" `Quick test_did_you_mean_circuit;
          Alcotest.test_case "engine did-you-mean" `Quick test_did_you_mean_engine;
          Alcotest.test_case "opt-passes did-you-mean" `Quick test_did_you_mean_opt_passes;
          Alcotest.test_case "objective did-you-mean" `Quick test_did_you_mean_objective;
          Alcotest.test_case "numeric ranges rejected" `Quick test_numeric_ranges;
          Alcotest.test_case "edit distance" `Quick test_edit_distance;
          Alcotest.test_case "valid circuit specs parse" `Quick test_valid_circuits_parse ] ) ]
