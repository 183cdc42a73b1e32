(** Structural equivalence fault collapsing.

    Two faults are equivalent when every test for one detects the other;
    structurally, a stuck-at-controlling-value on a gate input is equivalent
    to the implied stuck-at on its output ([AND]: in s-a-0 = out s-a-0;
    [NAND]: in s-a-0 = out s-a-1; [BUF]/[NOT] propagate both polarities).
    Collapsing shrinks the universe by 40-60 % on typical netlists, which
    directly shrinks every ANALYSIS and fault-simulation pass. *)

val collapsed_universe : Rt_circuit.Netlist.t -> Fault.t array
(** One fault per equivalence class of {!Fault.universe}: the class's
    {!Fault.compare}-least member, classes ordered by it.  Linear in the
    netlist: the union-find runs on integer fault ids, numbered so that
    they ascend in {!Fault.compare} order, and a {!Fault.t} is built only
    for each class's representative; the full universe is never built. *)
