type kind =
  | Input
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

let to_string = function
  | Input -> "INPUT"
  | Const0 -> "CONST0"
  | Const1 -> "CONST1"
  | Buf -> "BUF"
  | Not -> "NOT"
  | And -> "AND"
  | Nand -> "NAND"
  | Or -> "OR"
  | Nor -> "NOR"
  | Xor -> "XOR"
  | Xnor -> "XNOR"

let of_string s =
  match String.uppercase_ascii s with
  | "INPUT" -> Some Input
  | "CONST0" -> Some Const0
  | "CONST1" -> Some Const1
  | "BUF" | "BUFF" -> Some Buf
  | "NOT" | "INV" -> Some Not
  | "AND" -> Some And
  | "NAND" -> Some Nand
  | "OR" -> Some Or
  | "NOR" -> Some Nor
  | "XOR" -> Some Xor
  | "XNOR" -> Some Xnor
  | _ -> None

let arity_ok k n =
  match k with
  | Input | Const0 | Const1 -> n = 0
  | Buf | Not -> n = 1
  | And | Nand | Or | Nor | Xor | Xnor -> n >= 1

let eval k (vs : bool array) =
  match k with
  | Input -> invalid_arg "Gate.eval: Input has no gate function"
  | Const0 -> false
  | Const1 -> true
  | Buf -> vs.(0)
  | Not -> not vs.(0)
  | And -> Array.for_all Fun.id vs
  | Nand -> not (Array.for_all Fun.id vs)
  | Or -> Array.exists Fun.id vs
  | Nor -> not (Array.exists Fun.id vs)
  | Xor -> Array.fold_left (fun acc v -> acc <> v) false vs
  | Xnor -> not (Array.fold_left (fun acc v -> acc <> v) false vs)

let inverting = function
  | Nand | Nor | Not | Xnor -> true
  | Input | Const0 | Const1 | Buf | And | Or | Xor -> false

let controlling_value = function
  | And | Nand -> Some false
  | Or | Nor -> Some true
  | Input | Const0 | Const1 | Buf | Not | Xor | Xnor -> None
