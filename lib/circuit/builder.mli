(** Imperative construction DSL for netlists.

    A builder accumulates nodes; every combinator returns the new node id, so
    circuits compose as ordinary OCaml expressions.  [finalize] freezes the
    accumulated graph into a validated {!Netlist.t}. *)

type t

val create : ?fold:bool -> ?prune:bool -> unit -> t
(** [fold] (default true) enables constant folding as gates are added:
    a gate with constant fanins collapses to the implied constant, wire or
    inverter — the paper's "some redundancies are removed".  [prune]
    (default true) drops gates not feeding any primary output at
    {!finalize}; primary inputs are always kept because the fault model
    must contain their stuck-at faults. *)

val input : t -> string -> Netlist.node
(** Declare a named primary input. *)

val inputs : t -> string -> int -> Netlist.node array
(** [inputs b prefix n] declares [prefix ^ string_of_int i] for
    [i = 0 .. n-1]. *)

val const : t -> bool -> Netlist.node
(** Constant node (deduplicated per builder). *)

val gate : t -> ?name:string -> Gate.kind -> Netlist.node list -> Netlist.node
(** General gate; auto-named [nK] when [name] is omitted.  With folding
    enabled the returned node may be an existing one (constant or wire). *)

(** {1 Shorthands} *)

val not_ : t -> Netlist.node -> Netlist.node
val buf : t -> Netlist.node -> Netlist.node
val and2 : t -> Netlist.node -> Netlist.node -> Netlist.node
val or2 : t -> Netlist.node -> Netlist.node -> Netlist.node
val xor2 : t -> Netlist.node -> Netlist.node -> Netlist.node
val nand2 : t -> Netlist.node -> Netlist.node -> Netlist.node
val nor2 : t -> Netlist.node -> Netlist.node -> Netlist.node
val xnor2 : t -> Netlist.node -> Netlist.node -> Netlist.node
val andn : t -> Netlist.node list -> Netlist.node
val orn : t -> Netlist.node list -> Netlist.node
val mux : t -> sel:Netlist.node -> Netlist.node -> Netlist.node -> Netlist.node
(** [mux b ~sel a0 a1] is [a0] when [sel = 0], [a1] when [sel = 1]. *)

val output : t -> ?name:string -> Netlist.node -> unit
(** Mark an existing node as a primary output; [name] adds an alias [Buf]
    node when the node should be exposed under a different name. *)

val finalize : t -> Netlist.t
(** Freeze.  The builder must not be reused afterwards. *)
