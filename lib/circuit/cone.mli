(** Fanout-free regions: the structure behind the exact BDD engine's
    per-region rebuild ([Detect.make_bdd]) and the fault
    simulator's per-region root flips. *)

val ffr_roots : Netlist.t -> Netlist.node array
(** For every node, the root of its fanout-free region.  A node with
    exactly one fanout entry ({!Netlist.fanout}, one per reading pin, so
    a gate reading a node on two pins counts twice) that is not a
    primary output belongs to its reader's region; every other node is
    a root, and its own root.  Every path from a region's node to a
    primary output passes through the root.  One reverse topological
    sweep. *)
