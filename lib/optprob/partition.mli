(** Fault-set partitioning — the extension sketched in the paper's §5.3.

    Optimization fails when two hard faults need antagonistic input
    distributions (each has a low detection probability and their test sets
    are far apart in Hamming distance).  The paper proposes partitioning
    the fault set and computing separate optimal distributions per part but
    notes the procedure "wasn't implemented yet"; this module implements
    it.

    Conflict is measured on {e preference vectors}: for a hard fault [f],
    component [i] is [p_f(X,1|i) - p_f(X,0|i)] — how much raising input [i]
    helps detecting [f].  Antagonistic faults have strongly anti-correlated
    preference vectors; groups are seeded with the most antagonistic pair
    and grown by similarity.  The paper's own criterion, the Hamming
    distance between the two faults' test sets, is not implemented. *)

type split = {
  groups : int array array;  (** hard-fault indices per group *)
  weights : float array array;  (** optimised distribution per group *)
  n_single : float;  (** required length with the single-distribution optimum *)
  n_parts : float array;  (** per-part required length (its own faults + all easy faults) *)
  n_total : float;  (** sum of [n_parts]: total session length *)
}

val preference_vectors :
  Rt_testability.Oracle.t -> hard:int array -> float array -> float array array
(** One vector per hard fault, evaluated at the given weights. *)

val antagonism : float array -> float array -> float
(** Negative cosine similarity in [[-1, 1]]: 1 = perfectly antagonistic. *)

val split :
  ?options:Optimize.options ->
  ?k:int ->
  ?hard_threshold:float ->
  ?sub_engine:Rt_testability.Detect.engine ->
  Rt_testability.Oracle.t ->
  split
(** [split oracle] with [k] parts (default 2).  Hard faults are those with
    detection probability below [hard_threshold] (default: the NORMALIZE
    prefix) at the single-distribution optimum.  Each part is re-analysed
    with a fresh oracle built from [sub_engine] (default
    [Bdd_exact {node_limit = 500_000}]) over its own fault subset. *)
