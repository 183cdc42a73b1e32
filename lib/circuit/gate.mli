(** The gate alphabet of combinational networks.

    The boolean semantics is {!eval}.  Word-parallel evaluation is
    unrolled per kind inside the fault simulator's compiled good machine
    ([Fault_sim]), which also gathers STAFAN's counts,
    and the arithmetical embedding of paper §2.1 (evaluation over
    independent signal probabilities) inside the COP kernel
    ([Rt_testability.Cop_eval]); their tests check each against {!eval}. *)

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

val inverting : kind -> bool
(** Whether the gate complements the natural monotone body ([Nand], [Nor],
    [Not], [Xnor]). *)

val controlling_value : kind -> bool option
(** The fanin value that forces the output regardless of other fanins:
    [Some false] for AND/NAND, [Some true] for OR/NOR, [None] for the
    rest. *)
