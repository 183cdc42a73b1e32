(** The engine-agnostic oracle protocol.

    An oracle is a record-of-closures answering detection-probability
    queries for a fixed circuit and fault list.  Three query shapes:

    - {!probs}: the full vector [p_f(X)] (the paper's ANALYSIS);
    - {!probs_plan}: the same restricted to a fault subset's cones;
    - {!cofactor_pair}: both single-variable cofactors [p_f(X,0|i)] and
      [p_f(X,1|i)] of a subset from {e one} traversal — the PREPARE step
      (paper §4, eq. 15), the optimizer's hot path.

    Each engine has one evaluation kernel, its plan query: the engines in
    {!Detect} answer {!probs} with that kernel over an all-faults plan
    built once at construction, so a full query is the plan query over
    every fault and the two can never disagree.

    Engines register a fused [cofactor_pair] at construction when they can
    share work between the two cofactors (incremental damage-cone
    re-evaluation for COP/conditioned, a paired BDD traversal, a replayed
    pattern base for MC/STAFAN); otherwise the protocol falls back to two
    independent plan queries.  Both paths return bit-identical vectors —
    the fused implementations are required to reproduce the fallback's
    floats exactly — so switching engines or paths never changes optimizer
    results.  The [oracle.cofactor.incremental] / [oracle.cofactor.full]
    counters record which path served each query. *)

type plan
(** A prepared subset query: the selected faults plus the node masks
    (observability cone union; fanin-closed signal-probability support)
    their evaluation touches.  A plan is tied to the fault array it was
    made from: queries accept it only from an oracle over that same
    array. *)

type t

val make :
  kind:string ->
  label:string ->
  c:Rt_circuit.Netlist.t ->
  faults:Rt_fault.Fault.t array ->
  exact:bool array ->
  redundant:bool array ->
  run:(float array -> float array) ->
  run_subset:(plan -> float array -> float array) ->
  ?cofactor_pair:(plan -> input:int -> float array -> float array * float array) ->
  unit ->
  t
(** Engine constructors call this.  [kind] names the engine family for
    counters and spans ("cop", "bdd", ...); [label] is the human
    description.  [run] answers {!probs}; {!Detect}'s engines pass
    [run_subset] over their all-faults plan.  [run_subset] receives a
    validated plan.  The optional
    [cofactor_pair] is the engine's fused two-cofactor evaluation; it must
    be bit-identical to evaluating [run_subset] twice at [x] with
    coordinate [input] set to 0.0 and 1.0, and must not mutate [x]. *)

val make_plan : Rt_circuit.Netlist.t -> Rt_fault.Fault.t array -> int array -> plan
(** [make_plan c faults subset] computes the cone masks for a subset of
    [faults] — element [j] of plan-query results corresponds to fault
    index [subset.(j)].  Needs no oracle, so an engine constructor can
    build its all-faults plan before calling {!make} with the same
    [faults] array.  Raises [Invalid_argument] on out-of-range fault
    indices. *)

val plan : t -> int array -> plan
(** [plan o subset] is [make_plan (circuit o) (faults o) subset].  Plans
    are not cached: build one per subset and reuse it across queries, as
    {!Rt_optprob.Optimize.run} does per sweep. *)

(** Plan accessors, for engine implementations (treat the returned arrays
    as read-only — they are the plan's own state). *)

val subset : plan -> int array
(** The fault-index array the plan was built from. *)

val selected : plan -> Rt_fault.Fault.t array
(** The selected faults, in subset order. *)

val obs_mask : plan -> bool array
(** Union of the selected faults' transitive fanout cones (fanout-closed):
    the nodes whose observability the estimate needs. *)

val sp_mask : plan -> bool array
(** Fanin closure of the masked nodes and their side pins: the nodes whose
    signal probability the evaluation reads.  Fanin-closed by
    construction. *)

val probs : t -> float array -> float array
(** [probs o x] is [p_f(X)] for each fault, in fault-array order. *)

val probs_plan : t -> plan -> float array -> float array
(** Subset query against a prepared plan: equals gathering the selected
    entries from {!probs} bit-exactly, while doing only the subset's share
    of the work. *)

val cofactor_pair : t -> plan -> input:int -> x:float array -> float array * float array
(** [cofactor_pair o p ~input ~x] is
    [(probs_plan o p x0, probs_plan o p x1)] where [x0]/[x1] are [x] with
    coordinate [input] replaced by 0.0 / 1.0 — computed in one fused
    evaluation when the engine supports it.  [x] itself is never mutated.
    Bit-identical to the two independent queries by contract. *)

val faults : t -> Rt_fault.Fault.t array
val circuit : t -> Rt_circuit.Netlist.t

val kind : t -> string
(** The engine family name used in this oracle's counters and spans. *)

val describe : t -> string

val exact_mask : t -> bool array
(** Per fault: whether the value returned by {!probs} is exact. *)

val proven_redundant : t -> bool array
(** Per fault: an exact engine proved the fault undetectable.  Estimators
    return all-false. *)
