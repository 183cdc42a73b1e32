(** 64-way parallel-pattern good-circuit simulation.

    One forward sweep per batch evaluates all 64 lanes at once with plain
    word operations, under STAFAN counting.  Fault simulation runs its
    own good machine on its compiled netlist ({!Fault_sim}). *)

type t
(** A reusable workspace bound to one netlist. *)

val create : Rt_circuit.Netlist.t -> t
val circuit : t -> Rt_circuit.Netlist.t

val run : t -> Pattern.batch -> unit
(** Evaluate every node for the batch (lanes beyond [n_patterns] hold
    garbage; mask with {!Pattern.lane_mask}). *)

val value : t -> Rt_circuit.Netlist.node -> int64
(** Node value words after {!run}. *)

val values : t -> int64 array
(** The full per-node value array (shared; valid until the next [run]). *)

val output_word : t -> int -> int64
(** Value of the [k]-th primary output. *)
