(** Building BDDs for netlist nodes.

    Variables are the primary inputs in [Netlist.inputs] order (variable [i]
    is input position [i]).  Construction is bottom-up in topological order;
    a {!Bdd.Limit_exceeded} anywhere aborts the build, signalling the
    caller to fall back to an estimator.  Fault detection functions are
    built from these good-circuit BDDs by the exact ANALYSIS engine
    ([Rt_testability.Detect]). *)

val dfs_order : Rt_circuit.Netlist.t -> int array
(** A variable order (input position -> BDD variable level) from a
    depth-first traversal of the output cones.  Structurally related inputs
    (e.g. the two operands of a comparator) end up interleaved, which keeps
    BDDs of comparators, adders and parity cones polynomial where the
    declaration order is exponential. *)

val build_into : Bdd.manager -> order:int array -> Rt_circuit.Netlist.t -> Bdd.t array
(** [build_into m ~order c] is the BDD of every node of [c] in manager
    [m], built in node order: the good-circuit build of the exact
    ANALYSIS engine's generations.  Raises
    {!Bdd.Limit_exceeded} when [m] runs out of nodes. *)
