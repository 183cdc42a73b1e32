(** The full deterministic test-generation flow: the §5.2 comparison
    baseline.

    Random phase (fault simulation with dropping) followed by PODEM on the
    survivors, with each new deterministic test fault-simulated against the
    remaining faults, and an optional reverse-order compaction pass. *)

type result = {
  tests : bool array array;  (** the final test set *)
  detected : int;  (** faults covered by [tests] *)
  redundant : Rt_fault.Fault.t array;  (** proven untestable *)
  aborted : Rt_fault.Fault.t array;  (** backtrack limit reached *)
  podem_calls : int;
  seconds : float;
}

val generate :
  ?backtrack_limit:int ->
  ?random_patterns:int ->
  ?seed:int ->
  ?compact:bool ->
  Rt_circuit.Netlist.t ->
  Rt_fault.Fault.t array ->
  result
(** Defaults: backtrack limit 10_000, 128 random patterns, compaction
    on. *)
