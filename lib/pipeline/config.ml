(* One validated configuration record for the whole SORT / NORMALIZE /
   ANALYSIS / PREPARE / MINIMIZE / OPTIMIZE pipeline.  Every entry point
   (bin subcommands, the repro experiment tables, both bench binaries)
   builds one of these instead of hand-plumbing flags into the library. *)

module Detect = Rt_testability.Detect
module Optimize = Rt_optprob.Optimize

type circuit_source =
  | Builtin of string
  | Bench_file of string
  | Inline of { name : string; netlist : Rt_circuit.Netlist.t; digest : string }

type weights_source =
  | Uniform
  | Weights_file of string
  | Weights_vector of float array

type t = {
  circuit : circuit_source;
  engine : string;  (* validated spec, e.g. "cop", "bdd:500000" *)
  confidence : float;
  seed : int;
  jobs : int option;
  block_words : int option;
  sweeps : int;
  alpha : float;
  nf_min : int;
  w_min : float;
  start : float array option;
  start_jitter : float;
  quantize : Optimize.quantization;
  weights : weights_source;
  patterns : int;
  work_dir : string option;
  opt_passes : string list;  (* netlist optimization passes; [] = stage is identity *)
  opt_rounds : int;
  objective : string;  (* validated spec, e.g. "single", "ndetect:2", "twostage:512" *)
}

(* --- did-you-mean ---------------------------------------------------------- *)

let edit_distance a b =
  let la = String.length a and lb = String.length b in
  let prev = Array.init (lb + 1) Fun.id in
  let cur = Array.make (lb + 1) 0 in
  for i = 1 to la do
    cur.(0) <- i;
    for j = 1 to lb do
      let cost = if a.[i - 1] = b.[j - 1] then 0 else 1 in
      cur.(j) <- min (min (cur.(j - 1) + 1) (prev.(j) + 1)) (prev.(j - 1) + cost)
    done;
    Array.blit cur 0 prev 0 (lb + 1)
  done;
  prev.(lb)

let suggest candidates name =
  let scored =
    List.filter_map
      (fun c ->
        let d = edit_distance (String.lowercase_ascii name) (String.lowercase_ascii c) in
        if d <= max 1 (String.length c / 3) then Some (d, c) else None)
      candidates
  in
  match List.sort compare scored with
  | (_, best) :: _ -> Printf.sprintf " (did you mean %S?)" best
  | [] -> ""

(* --- circuit validation ----------------------------------------------------- *)

let builtin_names = List.map fst Rt_circuit.Generators.paper_suite @ [ "antagonist" ]

let circuit_of_string spec =
  if Sys.file_exists spec && not (Sys.is_directory spec) then Ok (Bench_file spec)
  else begin
    match Rt_circuit.Generators.by_name spec with
    | Some _ -> Ok (Builtin spec)
    | None ->
      Error
        (Printf.sprintf
           "unknown circuit %S%s; valid: %s, wide_and-N, s2:W, c6288ish:W, or a path to a \
            .bench file"
           spec (suggest builtin_names spec)
           (String.concat ", " builtin_names))
  end

let circuit_name = function
  | Builtin name -> name
  | Bench_file path -> path
  | Inline { name; _ } -> name

let load_circuit = function
  | Builtin name -> (
    match Rt_circuit.Generators.by_name name with
    | Some gen -> gen ()
    | None -> invalid_arg ("Config.load_circuit: unknown builtin " ^ name))
  | Bench_file path -> Rt_circuit.Bench_format.load path
  | Inline { netlist; _ } -> netlist

let file_digest path =
  try Digest.to_hex (Digest.file path) with Sys_error _ -> "missing"

let circuit_key = function
  | Builtin name -> "builtin:" ^ name
  | Bench_file path -> "file:" ^ file_digest path
  | Inline { digest; _ } -> "inline:" ^ digest

(* --- engine validation ------------------------------------------------------ *)

let engine_families = [ "cop"; "cond"; "bdd"; "stafan"; "mc" ]

let engine_usage = "cop | cond:K | bdd[:nodes] | stafan:N | mc:N"

let engine_of_string s =
  let int_after prefix =
    int_of_string_opt (String.sub s (String.length prefix) (String.length s - String.length prefix))
  in
  let fail () =
    let family = match String.index_opt s ':' with Some i -> String.sub s 0 i | None -> s in
    Error
      (Printf.sprintf "unknown engine %S%s (valid: %s)" s (suggest engine_families family)
         engine_usage)
  in
  let need prefix k =
    match int_after prefix with
    | Some n when n > 0 -> Ok (k n)
    | Some _ | None -> fail ()
  in
  if s = "cop" then Ok Detect.Cop
  else if s = "bdd" then Ok (Detect.Bdd_exact { node_limit = 1_000_000 })
  else if String.length s > 4 && String.sub s 0 4 = "bdd:" then begin
    (* Bdd packs node ids into 23-bit fields; Bdd.manager caps the limit. *)
    let cap = Rt_bdd.Bdd.max_node_limit in
    match int_after "bdd:" with
    | Some n when n >= 1 && n <= cap -> Ok (Detect.Bdd_exact { node_limit = n })
    | Some _ ->
      Error (Printf.sprintf "engine %S: nodes must be in [1, %d] (valid: %s)" s cap engine_usage)
    | None -> fail ()
  end
  else if String.length s > 7 && String.sub s 0 7 = "stafan:" then
    need "stafan:" (fun n -> Detect.Stafan { n_patterns = n; seed = 7 })
  else if String.length s > 3 && String.sub s 0 3 = "mc:" then
    need "mc:" (fun n -> Detect.Monte_carlo { n_patterns = n; seed = 7 })
  else if String.length s > 5 && String.sub s 0 5 = "cond:" then begin
    (* The conditioned engine expands 2^K assignments; Detect caps K at 16. *)
    match int_after "cond:" with
    | Some k when k >= 1 && k <= 16 -> Ok (Detect.Conditioned { max_vars = k })
    | Some _ -> Error (Printf.sprintf "engine %S: K must be in [1, 16] (valid: %s)" s engine_usage)
    | None -> fail ()
  end
  else fail ()

(* --- objective validation ---------------------------------------------------- *)

type objective_kind =
  | Single
  | N_detect of int
  | Two_stage of int option

let objective_families = [ "single"; "ndetect"; "twostage" ]

let objective_usage = "single | ndetect:K | twostage[:N1]"

let objective_of_string s =
  let fail () =
    let family = match String.index_opt s ':' with Some i -> String.sub s 0 i | None -> s in
    Error
      (Printf.sprintf "unknown objective %S%s (valid: %s)" s
         (suggest objective_families family) objective_usage)
  in
  let int_after prefix =
    int_of_string_opt (String.sub s (String.length prefix) (String.length s - String.length prefix))
  in
  if s = "single" then Ok Single
  else if s = "twostage" then Ok (Two_stage None)
  else if String.length s > 8 && String.sub s 0 8 = "ndetect:" then begin
    match int_after "ndetect:" with
    | Some k when k >= 1 -> Ok (N_detect k)
    | Some _ -> Error (Printf.sprintf "objective %S: K must be >= 1 (valid: %s)" s objective_usage)
    | None -> fail ()
  end
  else if String.length s > 9 && String.sub s 0 9 = "twostage:" then begin
    match int_after "twostage:" with
    | Some n1 when n1 >= 0 -> Ok (Two_stage (Some n1))
    | Some _ -> Error (Printf.sprintf "objective %S: N1 must be >= 0 (valid: %s)" s objective_usage)
    | None -> fail ()
  end
  else fail ()

(* OPTPROB_OBJECTIVE gives the default objective spec, mirroring
   OPTPROB_OPT for the optimization stage; unset or empty means "single".
   Invalid values are rejected at config construction, not here. *)
let default_objective () =
  match Sys.getenv_opt "OPTPROB_OBJECTIVE" with
  | Some s when String.trim s <> "" -> String.trim s
  | Some _ | None -> "single"

let objective_kind t =
  match objective_of_string t.objective with
  | Ok k -> k
  | Error msg -> invalid_arg ("Config.objective_kind: " ^ msg)

(* The Objective.t instance the analysis (NORMALIZE/MINIMIZE) layers use.
   A two-stage design optimizes the paper objective within each stage, so
   its analysis instance is [single]. *)
let objective_instance t =
  match objective_kind t with
  | Single | Two_stage _ -> Rt_optprob.Objective.single
  | N_detect k -> Rt_optprob.Objective.n_detect ~k

let objective_key t = t.objective

(* --- optimization-pass validation ------------------------------------------- *)

let pass_names = Rt_circuit.Passes.names

let validate_passes names =
  let bad = List.find_opt (fun n -> not (List.mem n pass_names)) names in
  match bad with
  | None -> Ok names
  | Some n ->
    Error
      (Printf.sprintf "unknown optimization pass %S%s (valid: %s, or \"none\")" n
         (suggest pass_names n)
         (String.concat ", " pass_names))

let opt_passes_of_string s =
  let s = String.trim s in
  if s = "" || s = "none" || s = "off" then Ok []
  else
    String.split_on_char ',' s |> List.map String.trim
    |> List.filter (fun x -> x <> "")
    |> validate_passes

(* OPTPROB_OPT=0/off/false/no/none turns the optimization stage off
   globally; any other value (or unset) keeps the default pass list. *)
let default_opt_passes () =
  match Sys.getenv_opt "OPTPROB_OPT" with
  | Some ("0" | "off" | "false" | "no" | "none") -> []
  | Some _ | None -> Rt_circuit.Passes.default_names

let engine_kind t =
  match engine_of_string t.engine with
  | Ok e -> e
  | Error msg -> invalid_arg ("Config.engine_kind: " ^ msg)

(* --- construction ----------------------------------------------------------- *)

let d = Optimize.default_options

let of_source ?(engine = "bdd") ?(confidence = 0.95) ?(seed = 2024) ?jobs ?block_words
    ?(sweeps = d.Optimize.max_sweeps) ?(alpha = d.Optimize.alpha) ?(nf_min = d.Optimize.nf_min)
    ?(w_min = d.Optimize.w_min) ?start ?(start_jitter = d.Optimize.start_jitter)
    ?(quantize = d.Optimize.quantize) ?(weights = Uniform) ?(patterns = 10_000) ?work_dir
    ?opt_passes ?(opt_rounds = 8) ?objective circuit =
  let opt_passes = match opt_passes with Some l -> l | None -> default_opt_passes () in
  let objective = match objective with Some s -> s | None -> default_objective () in
  match engine_of_string engine with
  | Error _ as e -> e
  | Ok _ -> (
    match validate_passes opt_passes with
    | Error _ as e -> e
    | Ok opt_passes -> (
      match objective_of_string objective with
      | Error _ as e -> e
      | Ok _ ->
        if opt_rounds < 0 then
          Error (Printf.sprintf "opt_rounds must be >= 0 (got %d)" opt_rounds)
        else if not (confidence > 0.0 && confidence < 1.0) then
          Error (Printf.sprintf "confidence must be in (0, 1) (got %g)" confidence)
        else if patterns < 0 then
          Error (Printf.sprintf "patterns must be >= 0 (got %d)" patterns)
        else if sweeps < 0 then Error (Printf.sprintf "sweeps must be >= 0 (got %d)" sweeps)
        else
          match quantize with
          | Optimize.Grid g when not (g > 0.0 && g < 0.5) ->
            Error (Printf.sprintf "grid must be in (0, 0.5) (got %g)" g)
          | Optimize.Dyadic b when b < 1 || b > 30 ->
            Error (Printf.sprintf "dyadic bits must be in [1, 30] (got %d)" b)
          | Optimize.Grid _ | Optimize.Dyadic _ | Optimize.No_quantization ->
            Ok
              { circuit; engine; confidence; seed; jobs; block_words; sweeps; alpha; nf_min;
                w_min; start; start_jitter; quantize; weights; patterns; work_dir; opt_passes;
                opt_rounds; objective }))

let make ?engine ?confidence ?seed ?jobs ?block_words ?sweeps ?alpha ?nf_min ?w_min ?start
    ?start_jitter ?quantize ?weights ?patterns ?work_dir ?opt_passes ?opt_rounds ?objective
    ~circuit () =
  match circuit_of_string circuit with
  | Error _ as e -> e
  | Ok source ->
    of_source ?engine ?confidence ?seed ?jobs ?block_words ?sweeps ?alpha ?nf_min ?w_min ?start
      ?start_jitter ?quantize ?weights ?patterns ?work_dir ?opt_passes ?opt_rounds ?objective
      source

let of_netlist ?engine ?confidence ?seed ?jobs ?block_words ?sweeps ?alpha ?nf_min ?w_min ?start
    ?start_jitter ?quantize ?weights ?patterns ?work_dir ?opt_passes ?opt_rounds ?objective
    ~name netlist =
  let digest = Digest.to_hex (Digest.string (Rt_circuit.Bench_format.to_string netlist)) in
  of_source ?engine ?confidence ?seed ?jobs ?block_words ?sweeps ?alpha ?nf_min ?w_min ?start
    ?start_jitter ?quantize ?weights ?patterns ?work_dir ?opt_passes ?opt_rounds ?objective
    (Inline { name; netlist; digest })

let exn = function
  | Ok v -> v
  | Error msg -> failwith msg

(* --- derived views ---------------------------------------------------------- *)

let optimize_options t =
  { Optimize.confidence = t.confidence;
    alpha = t.alpha;
    max_sweeps = t.sweeps;
    w_min = t.w_min;
    quantize = t.quantize;
    nf_min = t.nf_min;
    start = t.start;
    start_jitter = t.start_jitter;
    objective = objective_instance t }

let resolve_passes t = List.filter_map Rt_circuit.Passes.by_name t.opt_passes

let opt_key t =
  if t.opt_passes = [] then "opt=off"
  else Printf.sprintf "passes=%s;rounds=%d" (String.concat "," t.opt_passes) t.opt_rounds

let resolve_weights t c =
  match t.weights with
  | Uniform -> Array.make (Array.length (Rt_circuit.Netlist.inputs c)) 0.5
  | Weights_file path -> Rt_optprob.Weights_io.load path c
  | Weights_vector w -> Array.copy w

let weights_key t =
  match t.weights with
  | Uniform -> "uniform"
  | Weights_file path -> "wfile:" ^ file_digest path
  | Weights_vector w ->
    "wvec:"
    ^ Digest.to_hex
        (Digest.string (String.concat "," (Array.to_list (Array.map (Printf.sprintf "%h") w))))

let quantize_key = function
  | Optimize.No_quantization -> "none"
  | Optimize.Grid g -> Printf.sprintf "grid:%h" g
  | Optimize.Dyadic b -> Printf.sprintf "dyadic:%d" b

let optimize_key t =
  String.concat ";"
    [ "objective=" ^ t.objective;
      Printf.sprintf "confidence=%h" t.confidence;
      Printf.sprintf "alpha=%h" t.alpha;
      Printf.sprintf "sweeps=%d" t.sweeps;
      Printf.sprintf "w_min=%h" t.w_min;
      Printf.sprintf "nf_min=%d" t.nf_min;
      Printf.sprintf "jitter=%h" t.start_jitter;
      "quantize=" ^ quantize_key t.quantize;
      (match t.start with
       | None -> "start=jittered"
       | Some w ->
         "start="
         ^ Digest.to_hex
             (Digest.string
                (String.concat "," (Array.to_list (Array.map (Printf.sprintf "%h") w))))) ]
