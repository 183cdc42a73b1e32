(** COP-style observability: the probability that a value change on a line
    propagates to some primary output under random patterns.

    Computed in one backward sweep from the outputs, using the signal
    probabilities of the side inputs along each path.  Reconvergent fanout
    makes this an estimate; the [stem_rule] picks how branch
    observabilities recombine at a stem. *)

type stem_rule =
  | Complement_product
      (** [1 - prod (1 - o_b)]: treats branches as independent detection
          opportunities (STAFAN's choice); can overestimate. *)
  | Maximum
      (** [max o_b]: a lower bound that never overestimates through
          reconvergence masking alone. *)

val cop :
  ?stem_rule:stem_rule ->
  Rt_circuit.Netlist.t ->
  node_probs:float array ->
  float array
(** Observability of every node ([node_probs] from
    {!Signal_prob.independence} or better).  Default rule:
    [Complement_product]. *)

val cop_subset :
  ?stem_rule:stem_rule ->
  Rt_circuit.Netlist.t ->
  mask:bool array ->
  node_probs:float array ->
  float array
(** {!cop} restricted to the nodes where [mask] is true; other entries stay
    0.  [mask] must be fanout-closed (every reader of a masked node is
    masked) — e.g. a union of transitive fanout cones — so masked values
    equal the full sweep's exactly. *)

val set_cop_node :
  Rt_circuit.Netlist.t ->
  stem_rule:stem_rule ->
  node_probs:float array ->
  obs:float array ->
  Rt_circuit.Netlist.node ->
  unit
(** Stores in [obs.(g)] node [g]'s observability given its readers'
    observabilities in [obs] and side-input signal probabilities in
    [node_probs] — the body of one {!cop} sweep step.  Exposed so
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
