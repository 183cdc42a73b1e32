(* The end-to-end benchmark, traced pass: per-layer numbers for the same
   workloads, still measured from outside the library.

   Each iteration at config seed S+k runs, on fresh contexts:
   1. a plain rep, as main.ml times it (the base of trace.overhead);
   2. a traced rep: every stage accessor timed on its own, in graph order
      ([oracle] before [analysis], so engine construction is timed apart
      from the query);
   3. for workloads with an [optimized] stage, the optimizer again, through
      [Oracle.make] and [Objective.t] wrappers that forward every call to
      the real records under timers.  Its result must be bit-identical to
      the traced rep's [optimized] stage, or the iteration fails.

     dune exec bench/e2e/trace.exe                     # all four, 20 reps
     dune exec bench/e2e/trace.exe -- --workload twostage-cop --seconds 25 *)

module W = Workloads
module P = Rt_pipeline
module Config = Rt_pipeline.Config
module Oracle = Rt_testability.Oracle
module Objective = Rt_optprob.Objective
module Optimize = Rt_optprob.Optimize

let usage = "trace.exe [--workload NAME] [--seed S] [--seconds T | --reps R] [--strict]"
let default_reps = 20

(* --- the traced rep ------------------------------------------------------------ *)

(* What the per-layer numbers need from a traced rep; the context itself
   is dropped, so reps never accumulate live artifacts. *)
type traced = {
  stage_s : (string * float) list;  (** ledger name, seconds *)
  wall : float;  (** the whole stage sequence *)
  engine_desc : string;
  ppsfp : (int * int * int) option;  (** patterns run, faults, live fault-words *)
  opt_digest : string option;  (** {!W.optimized_digest} of the [optimized] stage *)
}

(* Fault-words the ppsfp stage propagated: a fault is injected over all
   [block_words] words of every block it is still live at the start of. *)
let live_fault_words (v : P.validated) =
  let block = 64 * W.block_words in
  let blocks = (v.P.patterns_run + block - 1) / block in
  Array.fold_left
    (fun acc fd -> acc + (W.block_words * if fd >= 0 then (fd / block) + 1 else blocks))
    0 v.P.first_detect

let traced_rep w ~seed =
  let ctx = W.fresh_context w ~seed in
  let t0 = W.now () in
  let stage_s =
    List.map
      (fun s ->
        let t = W.now () in
        W.force ctx s;
        (W.stage_name s, W.now () -. t))
      w.W.stages
  in
  let wall = W.now () -. t0 in
  let has s = List.mem s w.W.stages in
  ( { stage_s;
      wall;
      engine_desc = (if has W.Analysis then (P.analysis ctx).P.value.P.engine_desc else "");
      ppsfp =
        Option.map
          (fun (v : P.validated) ->
            (v.P.patterns_run, Array.length v.P.first_detect, live_fault_words v))
          (W.validation w ctx);
      opt_digest =
        (if has W.Optimized then
           let o = (P.optimized ctx).P.value in
           Some (W.optimized_digest ~report:o.P.opt_report ~two_stage:o.P.opt_two_stage)
         else None) },
    ctx )

(* --- the wrapped optimizer ------------------------------------------------------ *)

type meter = { mutable s : float; mutable calls : int }

let meter () = { s = 0.0; calls = 0 }

let timed m f =
  let t0 = W.now () in
  let r = f () in
  m.s <- m.s +. (W.now () -. t0);
  m.calls <- m.calls + 1;
  r

type meters = {
  probs : meter;  (** full and subset queries *)
  cofactor : meter;
  derivatives : meter;
  value : meter;  (** value, value_along and confidence *)
  mutable terms : int;  (** counted only: a timer would cost as much as the call *)
  mutable cofactor_us : float list;  (** every cofactor_pair call *)
}

type wrapped = {
  m : meters;
  total : float;  (** the optimizer call *)
  digest : string;  (** {!W.optimized_digest} of the result *)
  sweeps : int;
}

let wrap_oracle real m =
  Oracle.make ~kind:(Oracle.kind real) ~label:(Oracle.describe real) ~c:(Oracle.circuit real)
    ~faults:(Oracle.faults real) ~exact:(Oracle.exact_mask real)
    ~redundant:(Oracle.proven_redundant real)
    ~run:(fun x -> timed m.probs (fun () -> Oracle.probs real x))
    ~run_subset:(fun p x -> timed m.probs (fun () -> Oracle.probs_plan real p x))
    ~cofactor_pair:(fun p ~input x ->
      let before = m.cofactor.s in
      let r = timed m.cofactor (fun () -> Oracle.cofactor_pair real p ~input ~x) in
      m.cofactor_us <- ((m.cofactor.s -. before) *. 1e6) :: m.cofactor_us;
      r)
    ()

let wrap_objective (o : Objective.t) m =
  { o with
    Objective.term =
      (fun ~n ~p ->
        m.terms <- m.terms + 1;
        o.Objective.term ~n ~p);
    value = (fun ~n pfs -> timed m.value (fun () -> o.Objective.value ~n pfs));
    value_along =
      (fun ~n ~p0 ~p1 y -> timed m.value (fun () -> o.Objective.value_along ~n ~p0 ~p1 y));
    derivatives_along =
      (fun ~n ~p0 ~p1 y ->
        timed m.derivatives (fun () -> o.Objective.derivatives_along ~n ~p0 ~p1 y));
    confidence = (fun ~n pfs -> timed m.value (fun () -> o.Objective.confidence ~n pfs)) }

(* The [optimized] stage's computation, on a fresh context's oracle, through
   the wrappers.  Only the optimizer call is timed. *)
let wrapped_optimize w ~seed =
  let ctx = W.fresh_context w ~seed in
  let cfg = P.config ctx in
  let real = P.oracle ctx in
  let m =
    { probs = meter (); cofactor = meter (); derivatives = meter (); value = meter (); terms = 0;
      cofactor_us = [] }
  in
  let oracle = wrap_oracle real m in
  let base = Config.optimize_options cfg in
  let options = { base with Optimize.objective = wrap_objective base.Optimize.objective m } in
  let t0 = W.now () in
  let report, two_stage =
    match Config.objective_kind cfg with
    | Config.Two_stage n1 ->
      let ts =
        Optimize.two_stage ~options ?n1 ?jobs:cfg.Config.jobs ?block_words:cfg.Config.block_words
          oracle
      in
      (ts.Optimize.ts_stage1, Some ts)
    | Config.Single | Config.N_detect _ -> (Optimize.run ~options oracle, None)
  in
  let total = W.now () -. t0 in
  (* Every sweep issues exactly one cofactor_pair per primary input. *)
  let sweeps = m.cofactor.calls / max 1 (Array.length report.Optimize.weights) in
  { m; total; digest = W.optimized_digest ~report ~two_stage; sweeps }

(* --- per-layer numbers ------------------------------------------------------------ *)

(* Detect's description of the exact engine carries its node count. *)
let bdd_nodes desc =
  try Scanf.sscanf desc "bdd-exact(%d/%d exact, %d generations, %d nodes)" (fun _ _ _ n -> n)
  with Scanf.Scan_failure _ | End_of_file | Failure _ -> 0

let ledger_stages =
  [ "loaded"; "opt_netlist"; "faults"; "oracle_build"; "analysis"; "normalized"; "optimized";
    "validated"; "report" ]

let metrics ~plain ~(traced : traced list) ~(wrapped : wrapped list) =
  let med f l = if l = [] then 0.0 else W.median (List.map f l) in
  let stage name t = Option.value (List.assoc_opt name t.stage_s) ~default:0.0 in
  let sum_stages t = List.fold_left (fun a (_, s) -> a +. s) 0.0 t.stage_s in
  let ppsfp =
    List.filter_map (fun t -> Option.map (fun p -> (p, stage "validated" t)) t.ppsfp) traced
  in
  let count x = Float.of_int x in
  let ratio a b = if a <= 0.0 || b <= 0.0 then 0.0 else (a /. b) -. 1.0 in
  List.map (fun n -> ("stage." ^ n ^ "_s", med (stage n) traced, "s")) ledger_stages
  @ [ ("bdd.nodes", med (fun t -> count (bdd_nodes t.engine_desc)) traced, "count");
      ("oracle.cofactor_pair_s", med (fun r -> r.m.cofactor.s) wrapped, "s");
      ("oracle.cofactor_pair.calls", med (fun r -> count r.m.cofactor.calls) wrapped, "count");
      ( "oracle.cofactor_pair_us.p50",
        med Fun.id (List.concat_map (fun r -> r.m.cofactor_us) wrapped),
        "us" );
      ("oracle.probs_s", med (fun r -> r.m.probs.s) wrapped, "s");
      ("oracle.probs.calls", med (fun r -> count r.m.probs.calls) wrapped, "count");
      ("objective.derivatives_s", med (fun r -> r.m.derivatives.s) wrapped, "s");
      ("objective.derivatives.calls", med (fun r -> count r.m.derivatives.calls) wrapped, "count");
      ("objective.value_s", med (fun r -> r.m.value.s) wrapped, "s");
      ("objective.term.calls", med (fun r -> count r.m.terms) wrapped, "count");
      ( "optimize.other_s",
        med
          (fun { m; total; _ } ->
            total -. m.probs.s -. m.cofactor.s -. m.derivatives.s -. m.value.s)
          wrapped,
        "s" );
      ("optimize.sweeps", med (fun r -> count r.sweeps) wrapped, "count");
      ("ppsfp.patterns", med (fun ((p, _, _), _) -> count p) ppsfp, "count");
      ("ppsfp.faults", med (fun ((_, f, _), _) -> count f) ppsfp, "count");
      ("ppsfp.live_fault_words", med (fun ((_, _, lw), _) -> count lw) ppsfp, "count");
      ( "ppsfp.ns_per_live_fault_word",
        med (fun ((_, _, lw), s) -> s *. 1e9 /. Float.of_int (max 1 lw)) ppsfp,
        "ns" );
      ("stage.accounted_share", med (fun t -> sum_stages t /. t.wall) traced, "ratio");
      ("trace.overhead", ratio (med (fun t -> t.wall) traced) (med Fun.id plain), "ratio");
      ( "optimize.wrap_overhead",
        ratio (med (fun r -> r.total) wrapped) (med (stage "optimized") traced),
        "ratio" ) ]

(* --- the run ---------------------------------------------------------------------- *)

let run w (opts : W.run_opts) =
  W.print_header w;
  let attempted = ref 0 and failed = ref 0 in
  let count r =
    incr attempted;
    if Option.is_none r then incr failed;
    r
  in
  let plain = ref [] and traced = ref [] and wrapped = ref [] in
  let keep l r = Option.iter (fun x -> l := x :: !l) r in
  ignore (count (W.attempt w ~seed:opts.W.seed (fun () -> W.rep w ~seed:opts.W.seed)));
  let t_start = W.now () in
  let k = ref 0 in
  while W.more opts ~default_reps ~t_start !k do
    incr k;
    let seed = opts.W.seed + !k in
    keep plain (count (W.attempt w ~seed (fun () -> W.rep w ~seed)));
    let t = count (W.attempt w ~seed (fun () -> traced_rep w ~seed)) in
    keep traced t;
    match Option.bind t (fun t -> t.opt_digest) with
    | Some expected ->
      keep wrapped
        (count
           (match wrapped_optimize w ~seed with
            | r when r.digest = expected -> Some r
            | r ->
              Printf.eprintf "%s seed %d: wrapped optimizer result %s, stage result %s\n%!"
                w.W.name seed r.digest expected;
              None
            | exception e ->
              Printf.eprintf "%s seed %d: wrapped optimizer raised %s\n%!" w.W.name seed
                (Printexc.to_string e);
              None))
    | None -> ()
  done;
  let ms = metrics ~plain:!plain ~traced:!traced ~wrapped:!wrapped in
  Printf.printf "%d iterations; medians per rep (wrapped-optimizer numbers per optimizer run)\n"
    !k;
  List.iter (fun (name, v, unit) -> Printf.printf "%-30s %14.6g %s\n" name v unit) ms;
  (match List.find_opt (fun (n, _, _) -> n = "stage.accounted_share") ms with
   | Some (_, s, _) when !traced <> [] && s < 0.95 ->
     Printf.eprintf "harness error: stages account for %.3f of a traced rep (< 0.95)\n" s;
     exit 2
   | _ -> ());
  W.print_result ~attempted:!attempted ~failed:!failed ms;
  if opts.W.strict && !failed > 0 then exit 1

let () =
  let opts = W.parse_args ~usage [] in
  match opts.W.workload with
  | None -> W.each_workload_in_own_process opts
  | Some w -> run w opts
