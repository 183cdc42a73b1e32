(** Three-valued logic {0, 1, X} — the scalar base of PODEM's five-valued
    D-calculus (a five-valued signal is a good/faulty pair of these). *)

type t =
  | F
  | T
  | X

val of_bool : bool -> t
val equal : t -> t -> bool
val is_known : t -> bool

val eval : Rt_circuit.Gate.kind -> t array -> t
(** Gate evaluation with unknowns: a controlling value decides the output
    regardless of [X]s; otherwise any [X] input makes the output [X]. *)
