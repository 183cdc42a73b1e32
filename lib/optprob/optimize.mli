(** The paper's OPTIMIZE procedure (§4): cyclic per-input minimisation.

    Each sweep fixes the current test length [N] (from NORMALIZE), then for
    every primary input runs PREPARE — two ANALYSIS calls giving the
    cofactor detection probabilities [p_f(X,0|i)] and [p_f(X,1|i)] of the
    [nf] hardest faults — and MINIMIZE, replacing [x_i] by the unique
    coordinate optimum.  Sweeps repeat while the required test length keeps
    improving by more than the user-defined threshold (the paper's "a"). *)

type quantization =
  | No_quantization
  | Grid of float  (** round to multiples, e.g. 0.05 as the paper's appendix *)
  | Dyadic of int  (** round to k/2^bits, realisable by LFSR weighting logic *)

type options = {
  confidence : float;  (** target confidence of the random test (0.95) *)
  alpha : float;  (** stop when relative improvement of N falls below (0.01) *)
  max_sweeps : int;  (** hard sweep cap (12) *)
  w_min : float;  (** weights stay in [w_min, 1-w_min] (0.02, Lemma 2) *)
  quantize : quantization;  (** applied after convergence (Grid 0.05) *)
  nf_min : int;
      (** lower bound on the relevant-fault prefix (256).  NORMALIZE's own
          prefix can be very small; minimising against only a handful of
          hardest faults lets the sweep wreck the detection probabilities
          of the next tier and stall.  A few hundred faults in scope keeps
          the coordinate optimum balanced at negligible extra cost (the
          expensive part, the two ANALYSIS calls per input, is unchanged). *)
  start : float array option;  (** initial weights (default: jittered 0.5) *)
  start_jitter : float;
      (** amplitude of the deterministic perturbation around 0.5 used when
          [start] is [None] (0.06).  The exact symmetric point is a saddle
          for equality-comparator cones — coordinate descent needs the tie
          broken. *)
  objective : Objective.t;
      (** what the sweep minimises ({!Objective.single}).  Flows into
          NORMALIZE (the required [N] depends on the per-fault miss term)
          and every MINIMIZE step; telemetry is recorded per objective key
          ([objective.<key>.runs], [optimize.sweep_us.<key>], with [':']
          mapped to ['_'] in metric names). *)
}

val default_options : options

val apply_quantization : quantization -> float array -> float array
(** Project a weight vector onto a grid (used internally after the sweep;
    exposed for ablation studies). *)

type report = {
  weights : float array;  (** optimised (and quantised) input probabilities *)
  n_initial : float;  (** required length at the starting weights *)
  n_final : float;  (** required length at [weights] *)
  sweeps_run : int;
  history : float list;  (** required length after each sweep, oldest first *)
  j_history : float list;
      (** objective value after each sweep, oldest first, aligned with
          [history]: [J_N] over the detectable faults at the sweep's
          working test length (the [N] the sweep's MINIMIZE steps used) —
          the quantity the sweep actually descended. *)
  undetectable : int array;  (** faults with [p_f = 0] at the final weights *)
}

val run :
  ?options:options ->
  ?progress:(sweep:int -> n:float -> unit) ->
  ?recorder:Rt_obs.Convergence.t ->
  ?keep:bool array ->
  Rt_testability.Oracle.t ->
  report
(** Optimise the input probabilities for the oracle's circuit and fault
    list.  Deterministic for deterministic oracles; telemetry ([Rt_obs]
    spans/counters and the optional [recorder]) never affects the result.
    The [recorder], when given, receives one row for the starting point
    (stage ["initial"], the jittered start), one per sweep (in the same
    order as [history]), and one for the quantised final weights (stage
    ["final"], whose [n] equals [n_final]); each row carries the
    objective's key.  [keep], when given, restricts the optimization to
    the marked faults (one flag per fault, in fault-array order): the rest
    are held at [p_f = 0], exactly how NORMALIZE treats faults outside
    the population — this is {!two_stage}'s survivors hook.
    ANALYSIS then queries one plan of the kept faults, built once per run,
    instead of every fault; by the plan contract the result is the full
    query masked afterwards, bit for bit (so an all-true [keep] is [run]
    without it). *)

val improvement : report -> float
(** [n_initial / n_final] — the paper reports orders of magnitude here. *)

(** {2 Two-stage adaptive design}

    In the spirit of adaptive two-stage clinical trial designs
    (BinaryTwoStageDesigns): commit only [N1] patterns to the stage-1
    weights, observe (by ppsfp fault simulation) which hard faults
    actually survived, and re-optimise stage 2 for the survivors only —
    the stage-2 weight vector concentrates on the faults that chance left
    over, so the expected total [N1 + N2] can undercut any fixed
    single-stage budget.  The grid of candidate splits always contains
    [N1 = 0], whose design degenerates to the single-stage one, so the
    chosen design is never worse than single-stage by construction.

    The splits are evaluated in ascending [N1], and the first strictly
    smallest total is chosen.  The search stops at the first split whose
    [N1] is at least the best total found so far: its total
    [N1 + N2 >= N1] (N2 is non-negative and rounding the sum cannot go
    below [N1]), and so is every larger split's, so none of them could
    be chosen.  The chosen split is therefore the whole grid's, bit for
    bit, without paying the survivor simulation and stage-2 optimization
    of splits that cannot win (the early termination of adaptive
    two-stage design searches).  [N1 = 0] is always evaluated first. *)

type candidate = {
  cand_n1 : int;  (** stage-1 pattern budget *)
  cand_survivors : int;  (** detectable faults not detected within [cand_n1] *)
  cand_n2 : float;  (** required stage-2 length for the survivors *)
  cand_total : float;  (** [cand_n1 + cand_n2] — the design's expected total *)
}

type two_stage_report = {
  ts_stage1 : report;  (** the single-stage design (also the [N1 = 0] candidate) *)
  ts_n1 : int;
  ts_survivors : int;
  ts_stage2 : report option;
      (** [None] when the chosen split is degenerate ([N1 = 0], single-stage)
          or stage 1 already detected everything. *)
  ts_n2 : float;
  ts_total : float;  (** expected total patterns of the chosen design *)
  ts_single_n : float;  (** the single-stage [n_final], for comparison *)
  ts_weights : float array;  (** stage-2 weights (stage-1's when degenerate) *)
  ts_candidates : candidate list;
      (** every split evaluated, ascending [cand_n1]: a prefix of the grid
          that ends before the first split whose [N1] reaches the best
          total so far *)
}

val default_n1_grid : float list
(** Stage-1 budget candidates as fractions of the single-stage [N]
    ([0.0; 0.1; 0.25; 0.5; 0.75]). *)

val two_stage :
  ?options:options ->
  ?n1_grid:float list ->
  ?n1:int ->
  ?seed:int ->
  ?sim_cap:int ->
  ?jobs:int ->
  ?block_words:int ->
  ?progress:(sweep:int -> n:float -> unit) ->
  ?recorder:Rt_obs.Convergence.t ->
  Rt_testability.Oracle.t ->
  two_stage_report
(** [two_stage oracle] runs the single-stage design, then searches the
    stage split.  [n1] pins the stage-1 budget instead of searching
    [n1_grid]; [seed] makes the stage-1 simulated patterns deterministic
    (split [N1] draws from stream [seed + N1]); [sim_cap] (65536) bounds
    the per-candidate simulation cost — grid candidates above it are
    skipped.  Survivor simulations cover only the faults detectable at the
    stage-1 weights, the only ones that can survive.  [jobs]/[block_words] are passed to
    the ppsfp fault simulator.  [options.objective] applies to both
    stages. *)
