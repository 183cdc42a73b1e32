(** Netlist optimization passes run to fixpoint.

    A pass is a semantics-preserving rewrite [Netlist.t -> Netlist.t]
    together with a {!Remap.t} tracking where every old node went.  The
    contract every pass obeys (and the property tests enforce):

    - primary inputs are never removed, reordered or renamed — pattern
      sources and weight vectors index inputs positionally;
    - primary outputs keep their node (and hence name), order and
      boolean function — an output gate may change kind (e.g. a
      single-fanin NAND becomes a NOT) but never disappears;
    - every surviving node keeps its original name, so faults on the
      optimized netlist print in original-netlist names for free;
    - [Netlist.eval_outputs] is preserved exactly.

    The driver {!run} applies the pass list round-robin until a full
    round changes nothing (or the round budget is exhausted), composing
    the remaps, and records an [opt.pass.<name>] span per application
    via [Rt_obs]; the per-pass counts are in the returned {!stats}.

    Modeled on Blarney's [MNetlistPass] design: small passes with a
    changed flag, iterated to fixpoint (see DESIGN.md §14). *)

(** Old-id/new-id correspondence across one pass or a whole fixpoint. *)
module Remap : sig
  type t

  val identity : int -> t
  (** [identity n] maps every node of an [n]-node netlist to itself. *)

  val forward : t -> Netlist.node -> Netlist.node option
  (** [forward r old] is the node of the rewritten netlist carrying the
      old node's signal: the node itself when kept, its alias target when
      the node was bypassed (buffer chains, double negation), [None] when
      the signal no longer exists (dead logic, folded constants). *)

  val back : t -> Netlist.node -> Netlist.node
  (** [back r new_] is the old node a surviving node came from.  Total:
      every node of the rewritten netlist originates from exactly one
      old node. *)

  val compose : t -> t -> t
  (** [compose first second]: apply [first] then [second]. *)

  val size_before : t -> int
  val size_after : t -> int

  val is_identity : t -> bool
  (** True iff nothing was removed, aliased or reordered. *)
end

type pass

val pass_name : pass -> string

val apply : pass -> Netlist.t -> (Netlist.t * Remap.t) option
(** One application; [None] means the pass found nothing to change (the
    fixpoint condition). *)

(** {1 The passes} *)

val const_fold : pass
(** Propagates [Const0]/[Const1] through every gate kind: controlling
    constants collapse the gate to a constant, neutral constants are
    stripped from the fanin list, a gate left with one variable fanin
    degenerates to [Buf]/[Not].  Cascades within one application (the
    sweep is topological). *)

val collapse_identity : pass
(** Identity-gate collapsing: non-output [Buf]s are bypassed (chains
    resolve transitively in one application), [Not (Not x)] readers are
    rewired to [x], and single-fanin [And]/[Or]/[Xor] ([Nand]/[Nor]/
    [Xnor]) become wires (inverters). *)

val dead_cone : pass
(** Removes every non-input node from which no primary output is
    reachable.  Primary inputs always survive — the fault model requires
    their stuck-at faults and pattern vectors index them positionally. *)

val relevel : pass
(** Fanout-aware re-levelization: reorders node ids breadth-first by
    logic level, placing high-fanout nodes first within each level so
    widely-read signals sit early and fanout cones stay contiguous for
    the forward array sweeps.  Inputs keep their relative order.  Pure
    permutation — nothing is added or removed — and idempotent.  Linear
    time: two stable counting sorts, by tie rank then by level. *)

val level_order : Netlist.t -> Netlist.node array
(** The order {!relevel} numbers nodes in: [(level_order c).(i)] is the
    node that gets id [i].  Every fanin precedes its reader, and the
    order is the identity on a relevelled netlist. *)

val all : pass list
(** Every pass, in the canonical order [const-fold; identity; dead-cone;
    relevel]. *)

val names : string list
(** CLI names of {!all}, same order. *)

val default_names : string list
(** The pass list the pipeline runs by default (currently = {!names}). *)

val by_name : string -> pass option

(** {1 Fixpoint driver} *)

type pass_stat = {
  runs : int;  (** applications across all rounds *)
  changed : int;  (** applications that rewrote something *)
  nodes_removed : int;  (** net node-count reduction attributed to the pass *)
}

type stats = {
  rounds : int;  (** full rounds executed (>= 1 unless the pass list is empty) *)
  per_pass : (string * pass_stat) list;  (** in pass-list order *)
}

val run : ?rounds:int -> ?passes:pass list -> Netlist.t -> Netlist.t * Remap.t * stats
(** Applies [passes] (default {!all}) in order, repeating until a full
    round reports no change or [rounds] (default 8) rounds have run.
    The returned remap composes every application.  [passes = []] is the
    identity with zero rounds.  Idempotent: running the driver on its own
    output changes nothing. *)

val pp_stats : Format.formatter -> stats -> unit
(** One line per pass: [pass <name>: runs=R changed=C nodes_removed=N]. *)
