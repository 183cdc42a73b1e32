(** 64-way parallel-pattern good-circuit simulation.

    One forward sweep per batch evaluates all 64 lanes at once with plain
    word operations — the workhorse under fault simulation, STAFAN counting
    and Monte-Carlo detection-probability estimation. *)

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

(** {1 Wide (W x 64 lane) simulation}

    Same lane semantics as {!run}, over a {!Pattern.block} — one forward
    sweep evaluates up to [W * 64] patterns, amortizing the per-gate
    dispatch and fanin walks over W words of sequential unboxed memory. *)

type wide
(** A reusable wide workspace bound to one netlist and word count. *)

val create_wide : ?words:int -> Rt_circuit.Netlist.t -> wide
(** [words] as per {!Pattern.resolve_block_words}. *)

val run_wide : wide -> Pattern.block -> unit
(** Evaluate every node for the block (the block's word count must equal
    the workspace's [words]; lanes beyond each word's count hold garbage — mask with
    {!Pattern.word_mask}). *)

val wide_values : wide -> Pattern.words
(** Node-major value buffer — node [n]'s word [k] at [n * W + k]; shared,
    valid until the next {!run_wide}. *)

val wide_value : wide -> Rt_circuit.Netlist.node -> int -> int64
(** [wide_value t n k] is node [n]'s lane word [k]. *)
