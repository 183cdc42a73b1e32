(** COP-style observability: the probability that a value change on a line
    propagates to some primary output under random patterns.

    Computed in one backward sweep from the outputs, using the signal
    probabilities of the side inputs along each path.  Branch
    observabilities recombine at a stem as [1 - prod (1 - o_b)], treating
    the branches as independent detection opportunities (STAFAN's rule);
    under reconvergent fanout this is an estimate and can overestimate.
    Sweeps are restricted to a node mask: the engines evaluate a plan's
    cones, and a full-circuit sweep is the all-true mask. *)

val cop_subset :
  Rt_circuit.Netlist.t ->
  mask:bool array ->
  node_probs:float array ->
  float array
(** Observability of the nodes where [mask] is true ([node_probs] from
    {!Signal_prob.independence_subset} or better); other entries stay 0.
    [mask] must be fanout-closed (every reader of a masked node is
    masked) — e.g. a union of transitive fanout cones — so each masked
    value is the one an unmasked sweep would compute. *)

val set_cop_node :
  Rt_circuit.Netlist.t ->
  node_probs:float array ->
  obs:float array ->
  Rt_circuit.Netlist.node ->
  unit
(** Stores in [obs.(g)] node [g]'s observability given its readers'
    observabilities in [obs] and side-input signal probabilities in
    [node_probs] — the body of one {!cop_subset} sweep step.  Exposed so
    incremental evaluators can recompute exactly the dirty nodes of a
    damage cone with the same arithmetic as the full sweep.  Branch
    observabilities fold in reverse (reader, pin) discovery order;
    allocates nothing. *)

val pin_sensitization :
  Rt_circuit.Netlist.t -> node_probs:float array -> Rt_circuit.Netlist.node -> int -> float
(** Probability that gate [g]'s output is sensitive to its pin [k] (all
    other pins at non-controlling values; 1 for XOR-family). *)

val pin_observability :
  Rt_circuit.Netlist.t ->
  node_probs:float array ->
  obs:float array ->
  Rt_circuit.Netlist.node ->
  int ->
  float
(** Observability of the connection into pin [k] of gate [g]:
    [pin_sensitization * obs(g)]. *)
