(** STAFAN-style statistical fault analysis (Jain & Agrawal 1984).

    Instead of analytic propagation, controllabilities and sensitization
    probabilities are {e counted} during ordinary logic simulation; the
    paper names STAFAN as an alternative ANALYSIS provider for the
    optimizer, and this module implements that role.  The observability
    sweep is restricted to a node mask, the cones of the faults a query
    asks about; the engine's full query passes the all-faults plan's
    mask. *)

type counts = {
  n_patterns : int;
  ones : int array;  (** per node: patterns with value 1 *)
  sens : int array array;
      (** [sens.(g).(k)]: patterns where gate [g]'s output is sensitive to
          its pin [k] (empty array for inputs/constants) *)
}

val count :
  Rt_circuit.Netlist.t -> source:Rt_sim.Pattern.source -> n_patterns:int -> counts

val controllability : counts -> Rt_circuit.Netlist.node -> float
(** Measured one-probability of a node. *)

val observability_subset : Rt_circuit.Netlist.t -> mask:bool array -> counts -> float array
(** Backward observability sweep driven by the measured sensitization
    ratios, over the nodes where [mask] is true (other entries stay 0).
    [mask] must be fanout-closed (readers of masked nodes are masked), so
    each masked value is the one an unmasked sweep would compute.  Stems
    combine branches as COP's observability sweep ({!Cop_eval.sweep}) does. *)

val detection_probs_subset :
  Rt_circuit.Netlist.t ->
  mask:bool array ->
  counts ->
  Rt_fault.Fault.t array ->
  float array
(** Per-fault detection probability estimate for an already-gathered
    fault subset: activation x observability, both from counts, with the
    observability sweep restricted to [mask] (the union of the subset's
    fanout cones). *)
