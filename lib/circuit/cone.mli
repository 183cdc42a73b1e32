(** Structural cone analysis.

    Input supports and transitive fanin cones drive the supergate signal
    probability engine, PODEM's X-path checks, and the exact BDD engine's
    feasibility test (a node with 40 support variables will not get a BDD). *)

val support : Netlist.t -> Netlist.node -> Netlist.node array
(** Primary inputs in the transitive fanin of a node, ascending ids. *)

val support_size : Netlist.t -> Netlist.node -> int

val all_support_sizes : Netlist.t -> int array
(** Support cardinality for every node, computed in one forward sweep
    (exact, via per-node input sets represented as sorted arrays — cost is
    bounded by [size * inputs] worst case but typically far less). *)

val transitive_fanin : Netlist.t -> Netlist.node -> bool array
(** Membership mask over all nodes (includes the node itself). *)

val transitive_fanout : Netlist.t -> Netlist.node -> bool array
(** Nodes reachable from the given node (includes itself); the region a
    fault effect can reach. *)

val reaches_output : Netlist.t -> Netlist.node -> bool
(** Whether some primary output is in the transitive fanout. *)

val ffr_roots : Netlist.t -> Netlist.node array
(** For every node, the root of its fanout-free region.  A node with
    exactly one fanout entry ({!Netlist.fanout}, one per reading pin, so
    a gate reading a node on two pins counts twice) that is not a
    primary output belongs to its reader's region; every other node is
    a root, and its own root.  Every path from a region's node to a
    primary output passes through the root.  One reverse topological
    sweep. *)

val extract : Netlist.t -> Netlist.node list -> Netlist.t * int array
(** [extract c roots] builds the subcircuit feeding [roots]: the cone's
    inputs are the original primary inputs it depends on; [roots] become the
    outputs.  Returns the new netlist and a map from new node ids to
    original ids. *)
