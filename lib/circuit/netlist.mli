(** Immutable levelised combinational netlists.

    Nodes are dense integer ids in topological order (every fanin id is
    smaller than the gate id), which lets simulators and analysers run as
    single forward or backward array sweeps.  Construct through
    {!Builder} or {!Bench_format}. *)

type node = int
(** Node id, [0 <= id < size]. *)

type t

(** {1 Accessors} *)

val size : t -> int
val kind : t -> node -> Gate.kind
val fanin : t -> node -> node array
(** Shared array — do not mutate. *)

val fanout : t -> node -> node array
(** Gates reading this node, ascending.  Shared array — do not mutate. *)

val name : t -> node -> string
val find : t -> string -> node option
(** Lookup by name. *)

val inputs : t -> node array
(** Primary inputs, in declaration order.  Shared array — do not mutate. *)

val outputs : t -> node array
(** Primary outputs.  Shared array — do not mutate. *)

val input_index : t -> node -> int
(** For an input node, its position inside [inputs]; -1 otherwise. *)

val is_output : t -> node -> bool
val level : t -> node -> int
(** 0 for inputs/constants, [1 + max fanin level] for gates. *)

val max_level : t -> int

val iter_gates : t -> (node -> unit) -> unit
(** Visits every non-input node in topological (ascending id) order. *)

val gate_count : t -> int
(** Number of non-input, non-constant nodes. *)

(** {1 Construction (used by Builder)} *)

val make :
  kinds:Gate.kind array ->
  fanins:node array array ->
  names:string array ->
  output_list:node list ->
  t
(** Validates: topological fanin order, arities, name uniqueness, outputs
    exist.  Raises [Invalid_argument] with a diagnostic on violation. *)

(** {1 Whole-circuit evaluation (reference semantics)} *)

val eval : t -> bool array -> bool array
(** [eval c input_values] returns the value of {e every} node; slow
    reference used by tests and ATPG, not the simulator. *)

val eval_outputs : t -> bool array -> bool array
(** Just the primary output values, in [outputs] order. *)

val stats : t -> Format.formatter -> unit
(** One-line summary: inputs/outputs/gates/levels and per-kind gate counts. *)
