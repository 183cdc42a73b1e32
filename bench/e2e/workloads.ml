(* The end-to-end benchmark's workloads and output checks, shared by the
   plain pass (main.ml) and the traced pass (trace.ml).

   A rep is one whole user operation: a fresh [Rt_pipeline.create]
   context with no work dir (so no artifact is ever reused) whose stage
   accessors are forced in graph order.  Only those accessor calls are
   timed.  Everything else here — config construction, the checks, the
   digests — runs outside the timer. *)

module P = Rt_pipeline
module Config = Rt_pipeline.Config
module Optimize = Rt_optprob.Optimize

type stage =
  | Loaded
  | Opt_netlist
  | Faults
  | Oracle  (** engine construction, forced before [Analysis] so it is timed apart *)
  | Analysis
  | Normalized
  | Optimized
  | Validated
  | Simulated
  | Report

(* Ledger names.  [Simulated] is the pipeline's "validated" stage keyed
   at the analysis weights, so both report as the ppsfp stage. *)
let stage_name = function
  | Loaded -> "loaded"
  | Opt_netlist -> "opt_netlist"
  | Faults -> "faults"
  | Oracle -> "oracle_build"
  | Analysis -> "analysis"
  | Normalized -> "normalized"
  | Optimized -> "optimized"
  | Validated | Simulated -> "validated"
  | Report -> "report"

let force ctx = function
  | Loaded -> ignore (P.loaded ctx)
  | Opt_netlist -> ignore (P.opt_netlist ctx)
  | Faults -> ignore (P.faults ctx)
  | Oracle -> ignore (P.oracle ctx)
  | Analysis -> ignore (P.analysis ctx)
  | Normalized -> ignore (P.normalized ctx)
  | Optimized -> ignore (P.optimized ctx)
  | Validated -> ignore (P.validated ctx)
  | Simulated -> ignore (P.simulated ctx)
  | Report -> ignore (P.report ctx)

type t = {
  name : string;
  operation : string;  (** the [optprob] command line the rep reproduces *)
  circuit : string;
  engine : string;
  objective : string;
  stages : stage list;  (** forced in this order *)
  reps : int;  (** timed reps of a plain run without [--seconds] *)
  signature : string;  (** pinned seed-independent outputs, see {!signature} *)
  validation : string list;
      (** pinned {!validation_digest} of the reps at config seeds 1, 2, ... *)
}

(* Every field an environment variable could default is pinned here
   (OPTPROB_JOBS, OPTPROB_BLOCK_WORDS, OPTPROB_OPT, OPTPROB_OBJECTIVE), so
   a CI leg's environment cannot change the workload.  The pass list is
   spelled out rather than taken from the library's default list for the
   same reason. *)
let jobs = 1
let block_words = 4
let opt_passes = [ "const-fold"; "identity"; "dead-cone"; "relevel" ]
let opt_rounds = 8
let confidence = 0.95
let sweeps = 10
let patterns = 10_000

let config w ~seed =
  let cfg =
    Config.exn
      (Config.make ~engine:w.engine ~confidence ~seed ~jobs ~block_words ~sweeps
         ~weights:Config.Uniform ~patterns ~opt_passes ~opt_rounds ~objective:w.objective
         ~circuit:w.circuit ())
  in
  if
    cfg.Config.jobs <> Some jobs
    || cfg.Config.block_words <> Some block_words
    || cfg.Config.opt_passes <> opt_passes
    || cfg.Config.objective <> w.objective
    || cfg.Config.work_dir <> None
  then failwith "Config.make did not keep the pinned workload fields";
  cfg

let describe_config (c : Config.t) =
  let q =
    match c.Config.quantize with
    | Optimize.No_quantization -> "none"
    | Optimize.Grid g -> Printf.sprintf "grid:%g" g
    | Optimize.Dyadic b -> Printf.sprintf "dyadic:%d" b
  in
  Printf.sprintf
    "circuit=%s engine=%s objective=%s jobs=%s block_words=%s opt_passes=%s opt_rounds=%d \
     sweeps=%d alpha=%g nf_min=%d w_min=%g jitter=%g quantize=%s confidence=%g weights=%s \
     patterns=%d work_dir=%s"
    (Config.circuit_name c.Config.circuit)
    c.Config.engine c.Config.objective
    (match c.Config.jobs with Some j -> string_of_int j | None -> "env")
    (match c.Config.block_words with Some b -> string_of_int b | None -> "env")
    (String.concat "," c.Config.opt_passes)
    c.Config.opt_rounds c.Config.sweeps c.Config.alpha c.Config.nf_min c.Config.w_min
    c.Config.start_jitter q c.Config.confidence
    (match c.Config.weights with Config.Uniform -> "uniform" | _ -> "custom")
    c.Config.patterns
    (match c.Config.work_dir with Some d -> d | None -> "none")

(* --- digests ------------------------------------------------------------------ *)

let digest parts = String.sub (Digest.to_hex (Digest.string (String.concat "," parts))) 0 12
let floats a = List.map (Printf.sprintf "%h") (Array.to_list a)
let ints a = List.map string_of_int (Array.to_list a)

let report_parts (r : Optimize.report) =
  floats r.Optimize.weights
  @ floats [| r.Optimize.n_initial; r.Optimize.n_final |]
  @ [ string_of_int r.Optimize.sweeps_run ]
  @ floats (Array.of_list r.Optimize.history)
  @ floats (Array.of_list r.Optimize.j_history)
  @ ints r.Optimize.undetectable

(* Bit-exact identity of an optimizer result, two-stage design included. *)
let optimized_digest ~(report : Optimize.report) ~(two_stage : Optimize.two_stage_report option) =
  let ts_parts (ts : Optimize.two_stage_report) =
    [ string_of_int ts.Optimize.ts_n1; string_of_int ts.Optimize.ts_survivors ]
    @ (match ts.Optimize.ts_stage2 with Some r -> report_parts r | None -> [ "-" ])
    @ floats [| ts.Optimize.ts_n2; ts.Optimize.ts_total; ts.Optimize.ts_single_n |]
    @ floats ts.Optimize.ts_weights
    @ List.concat_map
        (fun c ->
          [ string_of_int c.Optimize.cand_n1; string_of_int c.Optimize.cand_survivors ]
          @ floats [| c.Optimize.cand_n2; c.Optimize.cand_total |])
        ts.Optimize.ts_candidates
  in
  digest (report_parts report @ match two_stage with Some ts -> ts_parts ts | None -> [ "-" ])

let validation_digest (v : P.validated) =
  digest (ints v.P.first_detect @ ints v.P.detect_count @ [ string_of_int v.P.patterns_run ])

(* The validation artifact of a rep, when its stages produce one. *)
let validation w ctx =
  if List.mem Validated w.stages then Some (P.validated ctx).P.value
  else if List.mem Simulated w.stages then Some (P.simulated ctx).P.value
  else None

(* The seed-independent outputs of a rep, as one readable line.  Reads
   only the memoised artifacts of the workload's own stages. *)
let signature w ctx =
  let has s = List.mem s w.stages in
  let fields = ref [ Printf.sprintf "faults=%d" (Array.length (P.faults ctx).P.value) ] in
  let add s = fields := s :: !fields in
  if has Analysis then begin
    let a = (P.analysis ctx).P.value in
    add
      (Printf.sprintf "redundant=%d"
         (Array.fold_left (fun n b -> if b then n + 1 else n) 0 a.P.proven_redundant));
    add ("pf=" ^ digest (floats a.P.pf))
  end;
  if has Normalized then begin
    let n = (P.normalized ctx).P.value in
    add (Printf.sprintf "n_conv=%h nf=%d" n.P.n_required n.P.nf)
  end;
  if has Optimized then begin
    let o = (P.optimized ctx).P.value in
    let r = o.P.opt_report in
    add
      (Printf.sprintf "n_final=%h sweeps=%d w=%s" r.Optimize.n_final r.Optimize.sweeps_run
         (digest (floats (P.opt_weights o))));
    match o.P.opt_two_stage with
    | Some ts ->
      add (Printf.sprintf "split=%d+%h survivors=%d" ts.Optimize.ts_n1 ts.Optimize.ts_n2
             ts.Optimize.ts_survivors)
    | None -> ()
  end;
  String.concat " " (List.rev !fields)

(* --- checks ------------------------------------------------------------------- *)

(* Everything wrong with a finished rep at config seed [seed]; [] when its
   outputs are correct. *)
let check w ctx ~seed =
  let errs = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let sg = signature w ctx in
  if sg <> w.signature then fail "signature %S, pinned %S" sg w.signature;
  (match validation w ctx with
   | None -> ()
   | Some v ->
     let hit = Array.fold_left (fun n fd -> if fd >= 0 then n + 1 else n) 0 v.P.first_detect in
     let total = Array.length v.P.first_detect in
     let cov = if total = 0 then 1.0 else Float.of_int hit /. Float.of_int total in
     if Int64.bits_of_float cov <> Int64.bits_of_float v.P.coverage then
       fail "coverage %h, recomputed from first_detect %h" v.P.coverage cov;
     if v.P.patterns_run > patterns then
       fail "patterns_run %d > configured %d" v.P.patterns_run patterns;
     Array.iteri
       (fun f fd ->
         if (v.P.detect_count.(f) > 0) <> (fd >= 0) then
           fail "fault %d: detect_count %d with first_detect %d" f v.P.detect_count.(f) fd)
       v.P.first_detect;
     if List.mem Report w.stages then begin
       let r = (P.report ctx).P.value in
       if r.P.r_coverage <> v.P.coverage || r.P.r_patterns <> v.P.patterns_run then
         fail "report disagrees with the validated stage"
     end;
     match if seed >= 1 then List.nth_opt w.validation (seed - 1) else None with
     | Some d when d <> validation_digest v ->
       fail "validation digest %s, pinned %s" (validation_digest v) d
     | _ -> ());
  List.rev !errs

(* --- reps --------------------------------------------------------------------- *)

let now = Unix.gettimeofday

(* A context at config seed [seed] on a collected heap, so that every rep
   starts from the heap a fresh [optprob] process has rather than from the
   previous rep's garbage.  This also makes heap_peak_mb one rep's peak. *)
let fresh_context w ~seed =
  let ctx = P.create (config w ~seed) in
  Gc.full_major ();
  ctx

(* One rep: a fresh context, its stages forced in order.  Returns the wall
   seconds of the accessor calls and the context (whose memoised artifacts
   the checks then read for free). *)
let rep w ~seed =
  let ctx = fresh_context w ~seed in
  let t0 = now () in
  List.iter (force ctx) w.stages;
  (now () -. t0, ctx)

(* Run [f], then the checks; an exception or a failed check is a failed
   rep, reported on stderr, never a stopped run. *)
let attempt w ~seed f =
  match
    let x, ctx = f () in
    (x, check w ctx ~seed)
  with
  | x, [] -> Some x
  | _, errs ->
    List.iter (Printf.eprintf "%s rep at seed %d: %s\n%!" w.name seed) errs;
    None
  | exception e ->
    Printf.eprintf "%s rep at seed %d raised %s\n%!" w.name seed (Printexc.to_string e);
    None

(* --- the workloads ------------------------------------------------------------- *)

let analysed = [ Loaded; Opt_netlist; Faults; Oracle; Analysis ]
let all_stages = analysed @ [ Normalized; Optimized; Validated; Report ]

let all =
  [ { name = "optimize-cop";
      operation = "optprob run s1 -e cop";
      circuit = "s1";
      engine = "cop";
      objective = "single";
      stages = all_stages;
      reps = 600;
      signature =
        "faults=534 redundant=0 pf=57181359fa31 n_conv=0x1.d7cc8d24p+31 nf=32 \
         n_final=0x1.ce8p+14 sweeps=6 w=06c76d96f96f";
      validation =
        [ "f81e8232c867"; "bfe96e22655d"; "13959bb55fb6"; "3e0e56d48cc6"; "4f930f64ce53";
          "bef580c4e25b"; "bd17ed865175"; "e18edf63e758"; "5bbd14c497d8"; "608ff7d70cd4";
          "81a10dbf3bf8"; "da638fc43f29"; "e2f5c95fbf7b"; "296fd0d83fe8"; "8807ec99a327";
          "11bfb00991fc"; "64258f8bd4a5"; "5e14583f8c7a"; "2560b3a85466"; "2746c963b28c";
          "d446a5a0d52a"; "4539e6bf4fe4"; "f79d9fe0cc2a"; "9de7928c230d"; "accdc2882e83";
          "35276145e9ad"; "67cdc554fbd9"; "55661f36aa26"; "1344c6b9662b"; "29a4720eb25c";
          "926a563d8f52"; "91f9aeeded29" ] };
    { name = "analyze-bdd";
      operation = "optprob analyze s1 -e bdd";
      circuit = "s1";
      engine = "bdd";
      objective = "single";
      stages = analysed @ [ Normalized ];
      reps = 160;
      signature = "faults=534 redundant=0 pf=4e29f95d9cfc n_conv=0x1.31a940cp+28 nf=64";
      validation = [] };
    { name = "simulate-ppsfp";
      operation = "optprob simulate c6288ish -e cop";
      circuit = "c6288ish";
      engine = "cop";
      objective = "single";
      stages = analysed @ [ Simulated ];
      reps = 100;
      signature = "faults=5728 redundant=0 pf=6273e817df95";
      validation =
        [ "3df631d877c2"; "c074ca082a1e"; "89f5ce82382d"; "0ab1604bca7c"; "97c4ed7ecc78";
          "227b41a7e566"; "7a111fef6a96"; "7014a52957df"; "01a48cc05249"; "c4cbb3646e28";
          "27efbc103290"; "49e09c4dd710"; "190c3a365249"; "bd72c2bbe4ed"; "c28648207890";
          "dd79fb4423ce"; "bf99da7a088b"; "2a750d865f6a"; "afaccd313aca"; "92f46bad90f5";
          "8bd694c8d987"; "54cc9e5884bd"; "e73083fd3367"; "75467e7daeaf"; "581fe1c4240a";
          "605064b7e7e6"; "3fff45930215"; "65e711207f89"; "0e2d370d5794"; "f748241dda89";
          "b6a153132cd5"; "d64020a04201" ] };
    { name = "twostage-cop";
      operation = "optprob run c2670ish -e cop --objective twostage";
      circuit = "c2670ish";
      engine = "cop";
      objective = "twostage";
      stages = all_stages;
      reps = 120;
      signature =
        "faults=1156 redundant=0 pf=e6e5dcfc298d n_conv=0x1.da6c14p+22 nf=128 \
         n_final=0x1.664p+15 sweeps=3 w=af1355c96c91 split=11464+0x1.e4p+8 survivors=17";
      validation =
        [ "b01f3867ab15"; "1098fa8388c0"; "2bc6fc9f0d85"; "d1eb9149913d"; "4cfee4a00b28";
          "00e930b3a5ba"; "8182d97e9647"; "9cb90dfc899d"; "635eb37d8b73"; "98fd7d495f94";
          "48aec2d3a80f"; "a129be5a304b"; "c8d90c4def01"; "6fd7650a90f6"; "454112b82ea6";
          "f357751452cd"; "895548ca1101"; "7800b50ac7da"; "ca638b090934"; "47c823536099";
          "9a791b427e28"; "d6eaa972bf19"; "e5b55f21417f"; "db1563f4849a"; "abf87befb69c";
          "e8d75bd987a3"; "33575b671bc6"; "2b455fe54445"; "8a00f44d7e0e"; "903c2720c5e0";
          "566c7ee39c0e"; "2fe2ab5313bd" ] } ]

let find name = List.find_opt (fun w -> w.name = name) all

(* --- shared command-line and report helpers ------------------------------------- *)

(* The commit checked out in the current directory, read from .git itself
   so nothing outside the checkout is consulted; "unknown" in an export. *)
let git_rev () =
  let first_line path =
    try Some (String.trim (In_channel.with_open_text path input_line))
    with Sys_error _ | End_of_file -> None
  in
  let rev =
    match first_line ".git/HEAD" with
    | Some head when String.starts_with ~prefix:"ref: " head ->
      first_line (".git/" ^ String.sub head 5 (String.length head - 5))
    | other -> other
  in
  match rev with Some r when String.length r >= 12 -> String.sub r 0 12 | _ -> "unknown"

let print_header w =
  Printf.printf "== %s: %s (stages %s)\n" w.name w.operation
    (String.concat "," (List.map stage_name w.stages));
  Printf.printf "config: %s seed=S+k\n" (describe_config (config w ~seed:1));
  Printf.printf "host: nproc=%d ocaml=%s git=%s\n%!" (Domain.recommended_domain_count ())
    Sys.ocaml_version (git_rev ())

let median xs =
  match List.sort compare xs with
  | [] -> Float.nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

(* Nearest-rank percentile. *)
let percentile q xs =
  match List.sort compare xs with
  | [] -> Float.nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    a.(max 0 (min (n - 1) (Float.to_int (Float.ceil (q *. Float.of_int n)) - 1)))

(* The result line the benchmark protocol reads: the last line of stdout. *)
let print_result ~attempted ~failed metrics =
  let metric (name, value, unit) =
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name
      (if Float.is_finite value then value else 0.0)
      unit
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0) attempted failed
    (String.concat ", " (List.map metric metrics))

type run_opts = {
  workload : t option;  (** [None]: every workload, each in its own process *)
  seed : int;
  seconds : float option;  (** time-bounded run; else a fixed rep count *)
  reps : int option;  (** overrides the pass's fixed rep count *)
  strict : bool;  (** exit 1 when any rep failed *)
}

(* Parse the options both passes share; [extra] adds pass-specific ones. *)
let parse_args ~usage extra =
  let workload = ref None and seed = ref 1 and seconds = ref None and reps = ref None in
  let strict = ref false in
  let set_workload n =
    match find n with
    | Some w -> workload := Some w
    | None ->
      raise
        (Arg.Bad
           (Printf.sprintf "unknown workload %S (valid: %s)" n
              (String.concat ", " (List.map (fun w -> w.name) all))))
  in
  let specs =
    [ ("--workload", Arg.String set_workload, "NAME run one workload in this process");
      ("--seed", Arg.Set_int seed, "S workload seed: rep k uses config seed S+k (default 1)");
      ("--seconds", Arg.Float (fun s -> seconds := Some s), "T measure for T seconds");
      ("--reps", Arg.Int (fun r -> reps := Some r), "R measure R reps");
      ("--strict", Arg.Set strict, " exit 1 when any rep fails its checks") ]
    @ extra
  in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  { workload = !workload; seed = !seed; seconds = !seconds; reps = !reps; strict = !strict }

(* The share of a run done after [k] reps, started at [t_start]: it lasts
   [seconds] when given, else [default_reps] reps. *)
let progress opts ~default_reps ~t_start k =
  match opts.seconds with
  | Some s -> (now () -. t_start) /. s
  | None -> Float.of_int k /. Float.of_int (Option.value opts.reps ~default:default_reps)

(* Whether the run goes on; it makes at least one rep. *)
let more opts ~default_reps ~t_start k =
  k = 0 || progress opts ~default_reps ~t_start k < 1.0

(* Re-run this executable once per workload, each in its own process, and
   fail when any of them does.  [forward] are extra arguments to pass on. *)
let each_workload_in_own_process ?(forward = []) opts =
  let args w =
    [ Sys.executable_name; "--workload"; w.name; "--seed"; string_of_int opts.seed ]
    @ forward
    @ (match opts.seconds with Some s -> [ "--seconds"; Printf.sprintf "%g" s ] | None -> [])
    @ (match opts.reps with Some r -> [ "--reps"; string_of_int r ] | None -> [])
    @ if opts.strict then [ "--strict" ] else []
  in
  let ok =
    List.fold_left
      (fun ok w ->
        let argv = Array.of_list (args w) in
        let pid = Unix.create_process argv.(0) argv Unix.stdin Unix.stdout Unix.stderr in
        match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> ok
        | _ -> false)
      true all
  in
  exit (if ok then 0 else 1)
