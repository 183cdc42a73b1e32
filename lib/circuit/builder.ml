type t = {
  mutable kinds : Gate.kind array;
  mutable fanins : int array array;
  mutable names : string array;
  mutable n : int;
  mutable outputs : int list;
  used_names : (string, unit) Hashtbl.t;
  mutable const0 : int;
  mutable const1 : int;
  fold : bool;
  prune : bool;
  mutable frozen : bool;
}

let create ?(fold = true) ?(prune = true) () =
  { kinds = Array.make 64 Gate.Input;
    fanins = Array.make 64 [||];
    names = Array.make 64 "";
    n = 0;
    outputs = [];
    used_names = Hashtbl.create 64;
    const0 = -1;
    const1 = -1;
    fold;
    prune;
    frozen = false }

let ensure_capacity b =
  if b.n >= Array.length b.kinds then begin
    let cap = 2 * Array.length b.kinds in
    let grow a fillv =
      let a' = Array.make cap fillv in
      Array.blit a 0 a' 0 b.n;
      a'
    in
    b.kinds <- grow b.kinds Gate.Input;
    b.fanins <- grow b.fanins [||];
    b.names <- grow b.names ""
  end

let fresh_name b base =
  if not (Hashtbl.mem b.used_names base) then base
  else begin
    let rec try_suffix k =
      let candidate = base ^ "_" ^ string_of_int k in
      if Hashtbl.mem b.used_names candidate then try_suffix (k + 1) else candidate
    in
    try_suffix 1
  end

let add b kind name fanin =
  if b.frozen then invalid_arg "Builder: already finalized";
  ensure_capacity b;
  let id = b.n in
  let name = fresh_name b (match name with Some s -> s | None -> "n" ^ string_of_int id) in
  Hashtbl.add b.used_names name ();
  b.kinds.(id) <- kind;
  b.fanins.(id) <- fanin;
  b.names.(id) <- name;
  b.n <- id + 1;
  id

let input b name = add b Gate.Input (Some name) [||]

let inputs b prefix n = Array.init n (fun i -> input b (prefix ^ string_of_int i))

(* [const0]/[const1] are the only constant nodes a builder makes; -1
   until made, which matches no node id. *)
let const b v =
  if v then begin
    if b.const1 < 0 then b.const1 <- add b Gate.Const1 (Some "const1") [||];
    b.const1
  end
  else begin
    if b.const0 < 0 then b.const0 <- add b Gate.Const0 (Some "const0") [||];
    b.const0
  end

(* Constant folding: with the constant fanins stripped, a gate may collapse
   to a constant, a buffer or an inverter.  This implements the paper's
   remark that S1 was built "where some redundancies are removed". *)
let fold_gate b kind fanin =
  let consts, vars = List.partition (fun j -> j = b.const0 || j = b.const1) fanin in
  let cvals = List.map (fun j -> j = b.const1) consts in
  let mk_const v = `Const v in
  match kind with
  | Gate.Input | Gate.Const0 | Gate.Const1 -> `Keep
  | Gate.Buf ->
    (match cvals with [ v ] -> mk_const v | _ -> `Keep)
  | Gate.Not ->
    (match cvals with [ v ] -> mk_const (not v) | _ -> `Keep)
  | Gate.And | Gate.Nand ->
    let inv = kind = Gate.Nand in
    if List.exists (fun v -> not v) cvals then mk_const inv
    else begin
      match vars with
      | [] -> mk_const (not inv)
      | [ x ] -> if inv then `Inv x else `Wire x
      | _ :: _ :: _ -> if consts = [] then `Keep else `Rebuild (kind, vars)
    end
  | Gate.Or | Gate.Nor ->
    let inv = kind = Gate.Nor in
    if List.exists (fun v -> v) cvals then mk_const (not inv)
    else begin
      match vars with
      | [] -> mk_const inv
      | [ x ] -> if inv then `Inv x else `Wire x
      | _ :: _ :: _ -> if consts = [] then `Keep else `Rebuild (kind, vars)
    end
  | Gate.Xor | Gate.Xnor ->
    let flip0 = kind = Gate.Xnor in
    let flip = List.fold_left (fun acc v -> acc <> v) flip0 cvals in
    (match vars with
     | [] -> mk_const flip
     | [ x ] -> if flip then `Inv x else `Wire x
     | _ :: _ :: _ ->
       if consts = [] then `Keep
       else `Rebuild ((if flip then Gate.Xnor else Gate.Xor), vars))

let rec gate b ?name kind fanin =
  List.iter (fun j -> if j < 0 || j >= b.n then invalid_arg "Builder.gate: unknown fanin") fanin;
  if not (Gate.arity_ok kind (List.length fanin)) then
    invalid_arg (Printf.sprintf "Builder.gate: bad arity for %s" (Gate.to_string kind));
  if not b.fold then add b kind name (Array.of_list fanin)
  else begin
    match fold_gate b kind fanin with
    | `Keep -> add b kind name (Array.of_list fanin)
    | `Const v -> const b v
    | `Wire x -> x
    | `Inv x -> gate b ?name Gate.Not [ x ]
    | `Rebuild (kind', vars) -> gate b ?name kind' vars
  end

let not_ b a = gate b Gate.Not [ a ]
let buf b a = gate b Gate.Buf [ a ]
let and2 b x y = gate b Gate.And [ x; y ]
let or2 b x y = gate b Gate.Or [ x; y ]
let xor2 b x y = gate b Gate.Xor [ x; y ]
let nand2 b x y = gate b Gate.Nand [ x; y ]
let nor2 b x y = gate b Gate.Nor [ x; y ]
let xnor2 b x y = gate b Gate.Xnor [ x; y ]
let andn b xs = gate b Gate.And xs
let orn b xs = gate b Gate.Or xs

let mux b ~sel a0 a1 =
  if sel = b.const0 then a0
  else if sel = b.const1 then a1
  else if a0 = a1 then a0
  else begin
    let ns = not_ b sel in
    let t0 = and2 b ns a0 in
    let t1 = and2 b sel a1 in
    or2 b t0 t1
  end

let output b ?name node =
  if node < 0 || node >= b.n then invalid_arg "Builder.output: unknown node";
  match name with
  | None -> b.outputs <- node :: b.outputs
  | Some s ->
    let alias = add b Gate.Buf (Some s) [| node |] in
    b.outputs <- alias :: b.outputs

let finalize b =
  if b.frozen then invalid_arg "Builder: already finalized";
  b.frozen <- true;
  let outputs = List.rev b.outputs in
  let keep = Array.make b.n false in
  if b.prune then begin
    (* Keep primary inputs (the fault model requires their stuck-at faults)
       and everything feeding an output. *)
    for i = 0 to b.n - 1 do
      if b.kinds.(i) = Gate.Input then keep.(i) <- true
    done;
    let rec visit n =
      if not keep.(n) then begin
        keep.(n) <- true;
        Array.iter visit b.fanins.(n)
      end
    in
    List.iter visit outputs
  end
  else Array.fill keep 0 b.n true;
  let remap = Array.make b.n (-1) in
  let count = ref 0 in
  for i = 0 to b.n - 1 do
    if keep.(i) then begin
      remap.(i) <- !count;
      incr count
    end
  done;
  let m = !count in
  let kinds = Array.make m Gate.Input in
  let fanins = Array.make m [||] in
  let names = Array.make m "" in
  for i = 0 to b.n - 1 do
    if keep.(i) then begin
      let j = remap.(i) in
      kinds.(j) <- b.kinds.(i);
      fanins.(j) <- Array.map (fun f -> remap.(f)) b.fanins.(i);
      names.(j) <- b.names.(i)
    end
  done;
  Netlist.make ~kinds ~fanins ~names ~output_list:(List.map (fun o -> remap.(o)) outputs)
