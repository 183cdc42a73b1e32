type t =
  | F
  | T
  | X

let of_bool b = if b then T else F
let equal (a : t) (b : t) = a = b
let is_known = function F | T -> true | X -> false

let and3 a b =
  match (a, b) with
  | F, _ | _, F -> F
  | T, T -> T
  | X, (T | X) | T, X -> X

let or3 a b =
  match (a, b) with
  | T, _ | _, T -> T
  | F, F -> F
  | X, (F | X) | F, X -> X

let xor3 a b =
  match (a, b) with
  | X, _ | _, X -> X
  | T, T | F, F -> F
  | T, F | F, T -> T

let not3 = function F -> T | T -> F | X -> X

let eval k (vs : t array) =
  let open Rt_circuit.Gate in
  let fold f init = Array.fold_left f init vs in
  match k with
  | Input -> invalid_arg "Tristate.eval: Input"
  | Const0 -> F
  | Const1 -> T
  | Buf -> vs.(0)
  | Not -> not3 vs.(0)
  | And -> fold and3 T
  | Nand -> not3 (fold and3 T)
  | Or -> fold or3 F
  | Nor -> not3 (fold or3 F)
  | Xor -> fold xor3 F
  | Xnor -> not3 (fold xor3 F)
