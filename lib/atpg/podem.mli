(** PODEM — path-oriented decision making (Goel 1981): complete
    deterministic test generation for single stuck-at faults.

    The paper's §5.2 compares the cost of optimization-plus-fault-simulation
    against deterministic test pattern generation (it cites the
    D-algorithm); PODEM is the standard such baseline.  The search decides
    only primary-input values, implies all internal signals in five-valued
    logic (a good/faulty {!Tristate.t} pair), and backtracks on conflicts
    or vanished X-paths.  With an exhausted search space the fault is
    {e proven} redundant. *)

type verdict =
  | Test of bool array
      (** A detecting input vector (don't-cares filled with [false]). *)
  | Redundant  (** Search space exhausted: no test exists. *)
  | Aborted  (** Backtrack limit hit: undecided. *)

type stats = {
  backtracks : int;
  decisions : int;
}

val generate :
  ?backtrack_limit:int ->
  Rt_circuit.Netlist.t ->
  Rt_fault.Fault.t ->
  verdict * stats
(** [generate c f] with a default backtrack limit of 10_000. *)
