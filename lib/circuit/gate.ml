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

(* The arithmetical embedding, one loop per kind over the fanin indices,
   so the sweeps that call it once per node allocate nothing.  The folds
   run in pin order: the product from 1.0, the complement product from
   1.0, and XOR pairwise from 0.0 (p <- a(1-b) + b(1-a), exact for
   independent fanins). *)
let[@inline] prod (p : float array) (fanin : int array) =
  let acc = ref 1.0 in
  for j = 0 to Array.length fanin - 1 do
    acc := !acc *. p.(fanin.(j))
  done;
  !acc

let[@inline] prod_compl (p : float array) (fanin : int array) =
  let acc = ref 1.0 in
  for j = 0 to Array.length fanin - 1 do
    acc := !acc *. (1.0 -. p.(fanin.(j)))
  done;
  !acc

let[@inline] xor (p : float array) (fanin : int array) =
  let acc = ref 0.0 in
  for j = 0 to Array.length fanin - 1 do
    let b = p.(fanin.(j)) in
    acc := (!acc *. (1.0 -. b)) +. (b *. (1.0 -. !acc))
  done;
  !acc

let set_prob k (p : float array) ~(fanin : int array) dst =
  p.(dst) <-
    (match k with
     | Input -> invalid_arg "Gate.set_prob: Input has no gate function"
     | Const0 -> 0.0
     | Const1 -> 1.0
     | Buf -> p.(fanin.(0))
     | Not -> 1.0 -. p.(fanin.(0))
     | And -> prod p fanin
     | Nand -> 1.0 -. prod p fanin
     | Or -> 1.0 -. prod_compl p fanin
     | Nor -> prod_compl p fanin
     | Xor -> xor p fanin
     | Xnor -> 1.0 -. xor p fanin)

let inverting = function
  | Nand | Nor | Not | Xnor -> true
  | Input | Const0 | Const1 | Buf | And | Or | Xor -> false

let controlling_value = function
  | And | Nand -> Some false
  | Or | Nor -> Some true
  | Input | Const0 | Const1 | Buf | Not | Xor | Xnor -> None
