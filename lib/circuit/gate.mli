(** The gate alphabet of combinational networks.

    Two semantics are provided for every gate kind: boolean evaluation and
    the arithmetical embedding of paper §2.1 (evaluation over independent
    signal probabilities).  Keeping both next to the type definition
    guarantees they never drift apart.  Word-parallel evaluation is
    unrolled per kind inside the simulators ([Logic_sim], [Fault_sim]),
    whose tests check it against {!eval}. *)

type kind =
  | Input        (** primary input; no fanin *)
  | Const0
  | Const1
  | Buf
  | Not
  | And
  | Nand
  | Or
  | Nor
  | Xor
  | Xnor

val equal_kind : kind -> kind -> bool
val to_string : kind -> string

val of_string : string -> kind option
(** Case-insensitive; accepts the ISCAS-85 spellings ([AND], [NAND], [DFF]
    is {e not} accepted — the library is purely combinational). *)

val arity_ok : kind -> int -> bool
(** [arity_ok k n] checks that a gate of kind [k] may have [n] fanins:
    inputs and constants take 0, [Buf]/[Not] take 1, the rest take >= 1
    ([Xor]/[Xnor] are parity/odd-parity over all fanins, as in ISCAS-85). *)

val eval : kind -> bool array -> bool
(** Boolean semantics over the fanin values. *)

val set_prob : kind -> float array -> fanin:int array -> int -> unit
(** [set_prob k p ~fanin dst] stores in [p.(dst)] the arithmetical
    embedding under the independence assumption: the exact probability of
    the gate output being true when the fanin signals, read as
    [p.(fanin.(j))], are {e independent}.  Products fold in pin order from
    1.0 and [Xor] folds pairwise from 0.0.  Allocates nothing, so a
    per-node sweep can call it directly on its probability vector. *)

val inverting : kind -> bool
(** Whether the gate complements the natural monotone body ([Nand], [Nor],
    [Not], [Xnor]). *)

val controlling_value : kind -> bool option
(** The fanin value that forces the output regardless of other fanins:
    [Some false] for AND/NAND, [Some true] for OR/NOR, [None] for the
    rest. *)

val controlled_output : kind -> bool option
(** Output produced when some fanin is at the controlling value. *)
