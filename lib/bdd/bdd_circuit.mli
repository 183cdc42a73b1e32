(** Building BDDs for netlist nodes.

    Variables are the primary inputs in [Netlist.inputs] order (variable [i]
    is input position [i]).  Construction is bottom-up in topological order;
    a {!Bdd.Limit_exceeded} anywhere aborts with [None] results, signalling
    the caller to fall back to an estimator.  Fault detection functions are
    built from these good-circuit BDDs by the exact ANALYSIS engine
    ([Rt_testability.Detect]). *)

val dfs_order : Rt_circuit.Netlist.t -> int array
(** A variable order (input position -> BDD variable level) from a
    depth-first traversal of the output cones.  Structurally related inputs
    (e.g. the two operands of a comparator) end up interleaved, which keeps
    BDDs of comparators, adders and parity cones polynomial where the
    declaration order is exponential.  All functions below use it by
    default; pass [~order] to override. *)

val build_into : Bdd.manager -> order:int array -> Rt_circuit.Netlist.t -> Bdd.t array
(** [build_into m ~order c] is the BDD of every node of [c] in manager
    [m], built in node order: the good-circuit build shared by {!build}
    and the exact ANALYSIS engine's generations.  Raises
    {!Bdd.Limit_exceeded} when [m] runs out of nodes. *)

val build :
  ?node_limit:int ->
  ?order:int array ->
  Rt_circuit.Netlist.t ->
  (Bdd.manager * Bdd.t array * int array) option
(** BDD for every node of the circuit plus the variable order used (input
    position -> variable); [None] if the node limit (default 500_000) was
    hit.  BDD variables are order-ranks: to evaluate probabilities, map
    variable [v] back through the returned order. *)

val signal_probs : ?node_limit:int -> Rt_circuit.Netlist.t -> float array -> float array option
(** Exact signal probability of every node when input [i] is true with
    probability [x_i] — the Parker-McCluskey computation. *)
