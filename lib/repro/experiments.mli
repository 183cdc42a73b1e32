(** Reproduction of every table and figure in the paper's evaluation.

    Each function regenerates one artefact and returns it as a printable
    table; {!ids} lists the complete set in paper order.  The [full] flag
    switches between a quick run (same experiments, slightly reduced
    optimizer budgets; minutes) and the full-scale run.  Everything is
    deterministic.

    Paper reference values are embedded in the tables (column "paper") so
    the output is self-contained evidence of which shapes hold. *)

type table = {
  id : string;
  title : string;
  header : string list;
  rows : string list list;
  notes : string list;
}

val print_table : Format.formatter -> table -> unit

val t1_required_length_conventional : ?full:bool -> unit -> table
(** Table 1: necessary test lengths for a conventional random test. *)

val t2_coverage_conventional : ?full:bool -> unit -> table
(** Table 2: fault coverage by simulation of conventional random patterns
    (12 000 / 12 000 / 4 000 / 4 096 patterns on the hard suite). *)

val t3_required_length_optimized : ?full:bool -> unit -> table
(** Table 3: necessary test lengths for optimized random tests. *)

val t4_coverage_optimized : ?full:bool -> unit -> table
(** Table 4: fault coverage by simulation of optimized random patterns. *)

val t5_cpu_time : ?full:bool -> unit -> table
(** Table 5: CPU time of the optimizing procedure, plus the §5.2 comparison
    against deterministic test generation (PODEM). *)

val f1_s1_structure : unit -> table
(** Fig. 1: the S1 comparator's structure (stats + netlist digest). *)

val f2_coverage_curve : ?full:bool -> unit -> table
(** Fig. 2: fault coverage vs pattern count on S1, conventional vs
    optimized series. *)

val a1_weight_listing : ?full:bool -> unit -> table
(** Appendix: optimized input probabilities for S1 and c7552ish. *)

val x2_partitioning : unit -> table
(** §5.3: the pathological antagonist circuit — single distribution vs the
    partitioned multi-distribution test this library implements. *)

val x3_convexity_scan : unit -> table
(** §3: numeric scan of [J_N(X, y|i)] confirming per-coordinate strict
    convexity (and multi-extremality across coordinates). *)

val x4_engine_ablation : ?full:bool -> unit -> table
(** §2.3/§5 claim — ANALYSIS providers are interchangeable ("PREDICT or
    STAFAN will presumably work as well"): optimize S1 with each oracle,
    score every weight vector with the exact engine. *)

val x5_quantization_ablation : ?full:bool -> unit -> table
(** Appendix grid — cost of weight realisability: unquantised vs the 0.05
    paper grid vs dyadic grids. *)

val x6_jitter_ablation : ?full:bool -> unit -> table
(** §3.1 multi-extremality in practice: starting the sweep exactly at the
    all-0.5 saddle stalls on equality-comparator circuits; the jittered
    start escapes it. *)

val ids : string list
(** Canonical experiment ids in paper order; each
    resolves through {!by_id} (the bench harness uses this to time
    experiments individually). *)

val by_id : string -> (?full:bool -> unit -> table) option
(** Lookup by experiment id ("t1".."t5", "f1", "f2", "a1", "x2".."x6"). *)
