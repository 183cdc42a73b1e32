(** Signal probability computation.

    Given input probabilities [X], the signal probability of a node is the
    chance it evaluates true.  Exact computation is #P-hard in general
    (Parker-McCluskey); this module offers the fast independence estimator
    (exact on fanout-free circuits) and the exact BDD engine for circuits
    that fit. *)

val independence : Rt_circuit.Netlist.t -> float array -> float array
(** One forward sweep applying each gate's arithmetical embedding as if all
    fanins were independent — the classical COP/PREDICT-style estimate,
    computed by {!Cop_eval}'s kernel.  Exact when no reconvergent fanout
    exists. *)

val conditioning_set : ?max_vars:int -> Rt_circuit.Netlist.t -> Rt_circuit.Netlist.node array
(** The inputs with the largest fanout (at least 2), up to [max_vars]
    (default 8) — the reconvergence sources most worth conditioning on. *)

val conditioned : ?max_vars:int -> Rt_circuit.Netlist.t -> float array -> float array
(** PREDICT-style estimate ([ABS86], cited by the paper): Shannon-expand
    over the {!conditioning_set} — for every assignment of those inputs run
    the independence sweep with them pinned and average with the assignment
    probabilities.  Exact when all reconvergence passes through the
    conditioned inputs; never worse-founded than {!independence}.  Cost is
    [2^|set|] sweeps. *)

val exact : ?node_limit:int -> Rt_circuit.Netlist.t -> float array -> float array option
(** Parker-McCluskey via BDDs; [None] when the circuit exceeds the node
    limit. *)

val max_error : Rt_circuit.Netlist.t -> float array -> float option
(** Largest absolute difference between {!independence} and {!exact} over
    all nodes, when the exact engine fits — a measure of how much
    reconvergence distorts the estimate on this circuit. *)
