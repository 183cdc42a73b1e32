(** COP detection-probability evaluation: plan-restricted sweeps (a full
    query is the sweep over an all-faults plan), and an incremental state
    for cofactor queries.

    COP estimates [p_f] as activation × observability.  Signal
    probabilities propagate forward under the independence assumption
    (the arithmetical embedding of paper §2.1, exact on fanout-free
    circuits).  Observabilities propagate backward from the outputs: a
    branch into pin [k] of gate [r] is observable with [r]'s observability
    times the probability that every other pin of [r] holds its
    non-controlling value, and branch observabilities recombine at a stem
    as [1 - prod (1 - o_b)] (STAFAN's rule; an estimate that can
    overestimate under reconvergent fanout).

    All of it runs one compiled kernel.  On first use a {!cones} value
    compiles its circuit into flat arrays — a gate code per node, the
    fanin rows, and each node's observability edges (reader, pin), packed
    one int each in the order the observability fold meets them — and a
    plan's faults into a table of source node, site, pin slot and stuck
    value, cached with the plan's cone cut.  Each pin's sensitization
    (the product over its gate's other pins) is computed once per sweep
    into a per-pin table, which the observability fold and the per-fault
    step read; a stem reads a constant 1.0 slot, so stems and branches
    share one expression.  Nothing is compiled until a query needs it, so
    an oracle that is never queried costs no table.

    The incremental {!state} caches the signal probabilities, pin
    sensitizations and observabilities of a base point [x] under a
    plan's masks.  A query at [x] with input [i] flipped re-evaluates
    only the {e damage cone} of [i]: the masked transitive fanout of the
    input node (signal side), the masked AND/NAND/OR/NOR gates with a
    pin in it (sensitization side), and the nodes whose COP
    observability reads a value that changes (observability side: a
    reader's observability, or the sensitization of its pin at a reader
    whose other pins changed).  A query leaves the cone it patched
    marked dirty, and the next query re-patches it at the base point's
    value; when the caller's [x] itself moves by one coordinate — the
    optimizer's per-coordinate sweep — the patch is committed at the new
    value instead of rebuilt.  A plan with the same masks as the
    previous one keeps the cached point and the cone cuts.

    Every result is bit-identical to the corresponding from-scratch
    {!probs_plan} call: nodes outside the cone cannot depend on the
    flipped input (the masks are closure-consistent), and nodes inside are
    recomputed in the same order by the same per-node kernels.

    STAFAN's measured fold runs on the same compiled tables:
    {!probs_counted} fills a sensitization table with the counted ratios
    ({!Rt_sim.Fault_sim.count}) and runs COP's observability kernel over
    it, so COP, its cofactors and STAFAN share one fold. *)

type cones
(** The compiled circuit and the damage cones of one circuit.  Each
    input's full-circuit cone is built on first use and kept as one flag
    byte per node; a plan's cone is that byte table intersected with the
    plan's masks, cut on first use per (plan, input) and kept, with the
    plan's compiled faults, until a query names another plan.  One value
    serves every {!state} of an oracle, so the conditioned engine's
    per-assignment states share it.  Not thread-safe. *)

val cones : Rt_circuit.Netlist.t -> cones
(** Compiles nothing yet. *)

val sweep :
  cones -> sp_mask:bool array -> obs_mask:bool array -> float array -> float array * float array
(** [sweep t ~sp_mask ~obs_mask x] is (signal probabilities, COP
    observabilities) at input probabilities [x]: the masked nodes in one
    ascending and one descending pass, every other entry 0.  A value is
    the unmasked sweep's when [sp_mask] is fanin-closed and [obs_mask]
    fanout-closed with its fanins in [sp_mask], as a plan's masks are;
    pass an all-false [obs_mask] for signal probabilities alone. *)

val probs_plan : ?jobs:int -> cones -> Oracle.plan -> float array -> float array
(** COP estimate of [p_f(X)] for the plan's selected faults: masked
    signal-probability and observability sweeps, then the selected faults
    only.  [jobs] shares the per-fault step across domains on large
    plans; the result does not depend on it.  Keeps no per-plan state. *)

val observability_counted :
  cones -> mask:bool array -> Rt_sim.Fault_sim.counts -> float array
(** STAFAN's backward observability sweep over the nodes where [mask] is
    true (other entries 0): each branch is observable with its measured
    sensitization ratio times its reader's observability, and stems fold
    their branches as COP's sweep does, in the same edge order.  A value
    is the unmasked sweep's when [mask] is fanout-closed. *)

val probs_counted : cones -> Oracle.plan -> Rt_sim.Fault_sim.counts -> float array
(** STAFAN's [p_f] for the plan's selected faults: measured activation
    times the faulted line's observability from {!observability_counted}
    over the plan's observability mask, a branch's through its pin's
    measured sensitization. *)

val cone : cones -> Oracle.plan -> input:int -> int array * int array * int array
(** [cone t plan ~input] is the input's damage cone under the plan's
    masks: (signal-probability-dirty nodes, sensitization-dirty gates,
    observability-dirty nodes), each ascending.  A sensitization-dirty
    gate is an AND/NAND/OR/NOR gate of the observability mask with a
    signal-probability-dirty pin.  The arrays are fresh copies. *)

val full_cone_sizes : cones -> input:int -> int * int
(** Sizes of the input's signal-probability and observability cones
    under the full masks (every node). *)

type state
(** Mutable incremental-evaluation state for one circuit.  Not
    thread-safe; create one per oracle (or per conditioning assignment,
    sharing one {!cones}). *)

val create : ?jobs:int -> cones -> state

val eval : state -> Oracle.plan -> float array -> float array
(** [eval st plan x]: the plan's selected detection probabilities at [x],
    reusing the cached base point when [x] differs from it in at most one
    coordinate (commit-patch) and rebuilding otherwise. *)

val cofactor_pair :
  state -> Oracle.plan -> input:int -> float array -> float array * float array
(** [(p_f(X,0|input), p_f(X,1|input))] for the plan's faults: sync the base
    point to [x], then patch the input's damage cone to 0.0 and 1.0 in
    turn, leaving it dirty for the next query's sync to re-patch.  Does
    not mutate [x]. *)
