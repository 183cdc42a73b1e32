(** The typed stage graph behind every entry point.

    Stages and their inputs (the paper's procedure, §4):

    {v
    Loaded ──> Opt_netlist ──> Faults ──> Analysis ──> Normalized ──> Optimized
      ──> Validated ──> Report
    v}

    - [Loaded]: the netlist (generator, .bench file or inline).
    - [Opt_netlist]: the {!Rt_circuit.Passes} fixpoint simplification of
      the loaded netlist (identity when [opt_passes = []]); every
      downstream stage consumes this netlist.  Keyed by the pass list and
      round budget ({!Config.opt_key}).
    - [Faults]: the collapsed single-stuck-at universe (of the optimized
      netlist; names survive optimization, so faults print in
      original-netlist terms).
    - [Analysis]: detection probabilities at the config's weights, plus
      the engine's redundancy/exactness masks (the ANALYSIS step).
    - [Normalized]: required test length [N] and the hardest-fault prefix
      (SORT + NORMALIZE).
    - [Optimized]: the full {!Rt_optprob.Optimize.report} (PREPARE /
      MINIMIZE / OPTIMIZE sweeps) under the config's objective, plus the
      {!Rt_optprob.Optimize.two_stage_report} when the objective is a
      two-stage design.
    - [Validated]: fault-simulation confirmation at the optimized weights.
    - [Report]: the assembled run summary.

    Every accessor memoises in the context; with a [work_dir] the stage
    artifact is content-addressed on disk (see {!Store}), so a second run
    with an unchanged config re-executes zero stages and a config change
    re-runs exactly the stages downstream of it.  Each stage execution
    (or hit) bumps [pipeline.stage.<name>.run] / [.cache_hit] and runs
    under a [pipeline.<name>] span. *)

type 'a staged = {
  value : 'a;
  digest : string;  (** content address; feeds downstream stage keys *)
  from_cache : bool;
}

type opt_netlist = {
  on_netlist : Rt_circuit.Netlist.t;  (** what every downstream stage runs on *)
  on_remap : Rt_circuit.Passes.Remap.t;  (** loaded-netlist ids -> optimized ids *)
  on_stats : Rt_circuit.Passes.stats;
}

type analysis = {
  pf : float array;  (** detection probability per fault, fault-array order *)
  a_weights : float array;  (** the input probabilities analysed *)
  proven_redundant : bool array;
  exact_mask : bool array;
  engine_desc : string;
}

type normalized = {
  n_required : float;  (** minimal test length at the analysis weights *)
  nf : int;  (** size of the relevant (hardest) prefix *)
  det_idx : int array;  (** detectable fault indices (fault-array order) *)
  hard : int array;  (** the [nf] hardest faults, as fault-array indices *)
  n_undetectable : int;
}

type optimized = {
  opt_report : Rt_optprob.Optimize.report;
      (** the single-stage design (stage 1 of a two-stage objective) *)
  opt_two_stage : Rt_optprob.Optimize.two_stage_report option;
      (** present iff the config objective is [twostage[:N1]] *)
}

val opt_weights : optimized -> float array
(** The deployed weight vector: stage-2 weights for a two-stage design,
    else the report's weights.  What [validated] simulates. *)

type validated = {
  v_weights : float array;
  first_detect : int array;
  detect_count : int array;
  patterns_run : int;
  v_seed : int;
  coverage : float;
}

type report = {
  r_circuit : string;
  r_stats : string;  (** of the (optimized) netlist the engines ran on *)
  r_raw_stats : string;  (** of the loaded netlist *)
  r_opt_key : string;  (** {!Config.opt_key} of the run *)
  r_nodes_removed : int;
  r_engine : string;
  r_inputs : int;
  r_faults : int;
  r_redundant : int;
  r_n_conventional : float;  (** required N at the analysis weights *)
  r_objective : string;  (** {!Config.objective_key} of the run *)
  r_opt : Rt_optprob.Optimize.report;
  r_two_stage : Rt_optprob.Optimize.two_stage_report option;
  r_coverage : float;
  r_patterns : int;
  r_seed : int;
}

type t
(** A pipeline context: one config, its store handle and stage memos. *)

val create : Config.t -> t
val config : t -> Config.t

(** {1 Stage accessors}

    Each returns the staged artifact, computing (and persisting) on demand. *)

val loaded : t -> Rt_circuit.Netlist.t staged
val opt_netlist : t -> opt_netlist staged
val faults : t -> Rt_fault.Fault.t array staged
val analysis : t -> analysis staged
val normalized : t -> normalized staged

val optimized :
  ?progress:(sweep:int -> n:float -> unit) ->
  ?recorder:Rt_obs.Convergence.t ->
  t ->
  optimized staged
(** [progress]/[recorder] apply only when the stage actually runs; a cache
    hit leaves the recorder empty. *)

val validated : t -> validated staged
(** Fault simulation at the {e optimized} weights. *)

val simulated : t -> validated staged
(** The same stage keyed at the {e analysis} weights (the [simulate]
    subcommand's workload). *)

val report : t -> report staged

(** {1 Convenience} *)

val circuit : t -> Rt_circuit.Netlist.t
(** The {e optimized} netlist — what faults, oracles and simulation use. *)

val raw_circuit : t -> Rt_circuit.Netlist.t
(** The loaded netlist, before optimization passes. *)

val remap : t -> Rt_circuit.Passes.Remap.t
val opt_stats : t -> Rt_circuit.Passes.stats
val fault_list : t -> Rt_fault.Fault.t array

val oracle : t -> Rt_testability.Oracle.t
(** The constructed ANALYSIS engine (memoised per context, never
    serialised).  Cache hits on downstream stages avoid constructing it. *)

val sim_stats : t -> validated -> Rt_sim.Fault_sim.stats
(** Reassemble a {!Rt_sim.Fault_sim.stats} from a validation artifact (for
    coverage curves and undetected listings). *)

(** {1 Whole-graph run} *)

type outcome = {
  o_report : report staged;
  o_stages : (string * bool) list;  (** (stage, served from cache), graph order *)
}

val run :
  ?progress:(sweep:int -> n:float -> unit) ->
  ?recorder:Rt_obs.Convergence.t ->
  t ->
  outcome

val stage_names : string list
val all_cached : outcome -> bool
val pp_stages : Format.formatter -> outcome -> unit
val pp_report : Format.formatter -> report -> unit

val pp_gain : Format.formatter -> Rt_optprob.Optimize.report -> unit
(** [x<n_initial / n_final>], or [n/a] unless both N are finite. *)
