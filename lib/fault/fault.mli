(** The single stuck-at fault model.

    The paper fixes "an arbitrary but fixed combinational fault model F ...
    it must contain all stuck-at-0 and stuck-at-1 faults at the primary
    inputs"; we use the standard complete single stuck-at universe: both
    polarities on every stem (node output) and on every fanout branch
    (gate input pin whose driver has fanout > 1 — branches of fanout-free
    drivers are equivalent to the stem and omitted). *)

type site =
  | Stem of Rt_circuit.Netlist.node
      (** The node's output line. *)
  | Branch of Rt_circuit.Netlist.node * int
      (** [Branch (g, k)]: the connection into pin [k] of gate [g]. *)

type t = { site : site; stuck : bool }

val compare : t -> t -> int
val equal : t -> t -> bool

val source : t -> Rt_circuit.Netlist.t -> Rt_circuit.Netlist.node
(** The driving node of the faulted line (the node itself for a stem; the
    [k]-th fanin for a branch). *)

val universe : Rt_circuit.Netlist.t -> t array
(** Full uncollapsed universe, deterministically ordered. *)

val input_faults : Rt_circuit.Netlist.t -> t array
(** Just the primary-input stem faults (the subset the paper's Lemma 2
    relies on). *)

val map_back :
  remap:Rt_circuit.Passes.Remap.t ->
  original:Rt_circuit.Netlist.t ->
  optimized:Rt_circuit.Netlist.t ->
  t ->
  t option
(** Image of a fault on the optimized netlist in the original netlist's
    universe.  Stems map through [Remap.back].  A branch fault maps to
    the original gate pin whose (alias-resolved) driver carries the same
    signal — matched by occurrence so duplicated fanins stay distinct —
    and demotes to the stem of that pin's driver when the driver is
    fanout-free in the original (the standard branch/stem equivalence).
    [None] only if no original pin carries the signal, which no
    {!Rt_circuit.Passes} rewrite produces. *)

val pp : Rt_circuit.Netlist.t -> Format.formatter -> t -> unit
val to_string : Rt_circuit.Netlist.t -> t -> string
(** e.g. ["n42 s-a-1"] or ["n42->n57[0] s-a-0"]. *)
