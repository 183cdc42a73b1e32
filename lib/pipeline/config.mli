(** The single configuration record behind every pipeline entry point.

    A [t] fully determines one run of the paper's staged procedure:
    which circuit, which ANALYSIS engine, the optimizer budget, the
    validation fault-simulation parameters, and (optionally) the artifact
    work directory that makes the run resumable.  Validation happens at
    construction: unknown circuit or engine names are rejected with a
    did-you-mean message listing the valid choices, instead of a bare
    exception from deep inside the stack. *)

type circuit_source =
  | Builtin of string  (** generator name, incl. [wide_and-N], [s2:W], [c6288ish:W] *)
  | Bench_file of string  (** path to an ISCAS-85 [.bench] file *)
  | Inline of { name : string; netlist : Rt_circuit.Netlist.t; digest : string }
      (** an in-memory netlist (e.g. built by tests or ablations); keyed by
          the digest of its bench serialisation *)

type weights_source =
  | Uniform  (** all 0.5 — the conventional random test *)
  | Weights_file of string  (** a [Weights_io] file *)
  | Weights_vector of float array  (** explicit per-input probabilities *)

type t = {
  circuit : circuit_source;
  engine : string;  (** validated engine spec ([cop], [cond:K], [bdd:N], ...) *)
  confidence : float;
  seed : int;  (** fault-simulation seed (the only seed-dependent stages are
                   [validated]/[report]) *)
  jobs : int option;
      (** worker domains; never affects results (every engine and the
          fault simulator are bit-identical at every job count) or
          artifact keys *)
  block_words : int option;
      (** ppsfp batch width in 64-pattern words ([--block-words] /
          [OPTPROB_BLOCK_WORDS]); like [jobs], never affects results or
          artifact keys *)
  sweeps : int;
  alpha : float;
  nf_min : int;
  w_min : float;
  start : float array option;
  start_jitter : float;
  quantize : Rt_optprob.Optimize.quantization;
  weights : weights_source;  (** the weights the ANALYSIS stage evaluates *)
  patterns : int;  (** validation fault-simulation pattern count *)
  work_dir : string option;  (** artifact store root; [None] = in-memory only *)
  opt_passes : string list;
      (** {!Rt_circuit.Passes} names run by the [opt_netlist] stage, in
          order; [[]] makes the stage the identity.  Default: every pass,
          unless [OPTPROB_OPT] is [0]/[off]/[false]/[no]/[none]. *)
  opt_rounds : int;  (** fixpoint round budget for the pass driver (default 8) *)
  objective : string;
      (** validated objective spec ([single], [ndetect:K], [twostage[:N1]]).
          Default: [OPTPROB_OBJECTIVE] when set, else [single] — mirroring
          how [OPTPROB_OPT] defaults [opt_passes]. *)
}

val make :
  ?engine:string ->
  ?confidence:float ->
  ?seed:int ->
  ?jobs:int ->
  ?block_words:int ->
  ?sweeps:int ->
  ?alpha:float ->
  ?nf_min:int ->
  ?w_min:float ->
  ?start:float array ->
  ?start_jitter:float ->
  ?quantize:Rt_optprob.Optimize.quantization ->
  ?weights:weights_source ->
  ?patterns:int ->
  ?work_dir:string ->
  ?opt_passes:string list ->
  ?opt_rounds:int ->
  ?objective:string ->
  circuit:string ->
  unit ->
  (t, string) result
(** Defaults: engine ["bdd"], confidence 0.95, seed 2024, patterns 10_000,
    and {!Rt_optprob.Optimize.default_options} for the optimizer fields.
    [Error] carries a user-ready message (with a did-you-mean suggestion)
    when the circuit or engine spec is invalid, and when a number is out
    of range: confidence outside (0, 1), negative patterns, sweeps or
    opt_rounds, a grid outside (0, 0.5) or dyadic bits outside [1, 30]. *)

val of_source :
  ?engine:string ->
  ?confidence:float ->
  ?seed:int ->
  ?jobs:int ->
  ?block_words:int ->
  ?sweeps:int ->
  ?alpha:float ->
  ?nf_min:int ->
  ?w_min:float ->
  ?start:float array ->
  ?start_jitter:float ->
  ?quantize:Rt_optprob.Optimize.quantization ->
  ?weights:weights_source ->
  ?patterns:int ->
  ?work_dir:string ->
  ?opt_passes:string list ->
  ?opt_rounds:int ->
  ?objective:string ->
  circuit_source ->
  (t, string) result
(** Like {!make} for an already-validated circuit source. *)

val of_netlist :
  ?engine:string ->
  ?confidence:float ->
  ?seed:int ->
  ?jobs:int ->
  ?block_words:int ->
  ?sweeps:int ->
  ?alpha:float ->
  ?nf_min:int ->
  ?w_min:float ->
  ?start:float array ->
  ?start_jitter:float ->
  ?quantize:Rt_optprob.Optimize.quantization ->
  ?weights:weights_source ->
  ?patterns:int ->
  ?work_dir:string ->
  ?opt_passes:string list ->
  ?opt_rounds:int ->
  ?objective:string ->
  name:string ->
  Rt_circuit.Netlist.t ->
  (t, string) result
(** Like {!make} for an in-memory netlist. *)

val exn : (t, string) result -> t
(** [exn r] unwraps or raises [Failure] with the validation message. *)

val circuit_of_string : string -> (circuit_source, string) result
val engine_of_string : string -> (Rt_testability.Detect.engine, string) result
(** Both reject unknown names with a did-you-mean message. *)

val opt_passes_of_string : string -> (string list, string) result
(** Comma-separated {!Rt_circuit.Passes} names ([""], ["none"] and
    ["off"] mean no passes); unknown names are rejected with a
    did-you-mean message. *)

type objective_kind =
  | Single  (** the paper objective *)
  | N_detect of int  (** [ndetect:K] — minimise missed [K]-fold detections *)
  | Two_stage of int option
      (** [twostage[:N1]] — adaptive two-stage design; [Some n1] pins the
          stage-1 budget, [None] searches the split grid *)

val objective_of_string : string -> (objective_kind, string) result
(** Rejects unknown specs with the shared did-you-mean message. *)

val objective_usage : string
(** One-line summary of the objective grammar (for --help texts). *)

val engine_usage : string
(** One-line summary of the engine grammar (for --help texts). *)

val circuit_name : circuit_source -> string
val load_circuit : circuit_source -> Rt_circuit.Netlist.t
val engine_kind : t -> Rt_testability.Detect.engine
val objective_kind : t -> objective_kind

val objective_instance : t -> Rt_optprob.Objective.t
(** The {!Rt_optprob.Objective.t} the analysis layers (NORMALIZE /
    MINIMIZE) use: [single] for [Single] and [Two_stage] (each stage of a
    two-stage design minimises the paper objective), [n_detect] for
    [N_detect]. *)

val optimize_options : t -> Rt_optprob.Optimize.options
val resolve_weights : t -> Rt_circuit.Netlist.t -> float array

val resolve_passes : t -> Rt_circuit.Passes.pass list
(** The validated [opt_passes] names resolved to actual passes. *)

(** {1 Artifact keying}

    Deterministic strings folded into stage keys.  [jobs] and
    [block_words] are deliberately absent everywhere: results are
    bit-identical for every value of either. *)

val circuit_key : circuit_source -> string
(** Builtin name, or content digest for files and inline netlists. *)

val weights_key : t -> string

val optimize_key : t -> string
(** Includes the objective spec, so optimizer artifacts from different
    objectives occupy distinct store keys. *)

val objective_key : t -> string
(** The validated objective spec verbatim (e.g. ["ndetect:2"]) — the
    config-slice value recorded in run manifests. *)

val opt_key : t -> string
(** ["opt=off"] when [opt_passes = []], else the pass list and round
    budget — the config slice of the [opt_netlist] stage key. *)

val edit_distance : string -> string -> int
(** Levenshtein distance (exposed for tests). *)
