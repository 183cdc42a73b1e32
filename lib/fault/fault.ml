module Netlist = Rt_circuit.Netlist
module Gate = Rt_circuit.Gate

type site =
  | Stem of Netlist.node
  | Branch of Netlist.node * int

type t = { site : site; stuck : bool }

(* By node, then the stem before pin [k], then stuck-at-0 first; no
   allocation. *)
let compare a b =
  let node f = match f.site with Stem n -> n | Branch (g, _) -> g in
  let pin f = match f.site with Stem _ -> -1 | Branch (_, k) -> k in
  let d = Int.compare (node a) (node b) in
  if d <> 0 then d
  else
    let d = Int.compare (pin a) (pin b) in
    if d <> 0 then d else Bool.compare a.stuck b.stuck

let equal a b = compare a b = 0

let source f c =
  match f.site with
  | Stem n -> n
  | Branch (g, k) -> (Netlist.fanin c g).(k)

let universe c =
  let acc = ref [] in
  for n = Netlist.size c - 1 downto 0 do
    (match Netlist.kind c n with
     | Gate.Const0 | Gate.Const1 -> ()
     | Gate.Input | Gate.Buf | Gate.Not | Gate.And | Gate.Nand | Gate.Or | Gate.Nor
     | Gate.Xor | Gate.Xnor ->
       acc := { site = Stem n; stuck = true } :: { site = Stem n; stuck = false } :: !acc)
  done;
  (* Branch faults where the driver has fanout > 1. *)
  let branches = ref [] in
  Netlist.iter_gates c (fun g ->
      Array.iteri
        (fun k src ->
          if Array.length (Netlist.fanout c src) > 1 then
            branches :=
              { site = Branch (g, k); stuck = true }
              :: { site = Branch (g, k); stuck = false }
              :: !branches)
        (Netlist.fanin c g));
  Array.of_list (!acc @ List.rev !branches)

let input_faults c =
  Netlist.inputs c |> Array.to_list
  |> List.concat_map (fun i -> [ { site = Stem i; stuck = false }; { site = Stem i; stuck = true } ])
  |> Array.of_list

let map_back ~remap ~original ~optimized f =
  let module Remap = Rt_circuit.Passes.Remap in
  match f.site with
  | Stem n -> Some { f with site = Stem (Remap.back remap n) }
  | Branch (g, k) ->
    let og = Remap.back remap g in
    let opt_fi = Netlist.fanin optimized g in
    let src = opt_fi.(k) in
    (* Occurrence rank of this pin among the gate's pins reading [src],
       so duplicated fanins pair up positionally. *)
    let occ = ref 0 in
    for j = 0 to k - 1 do
      if opt_fi.(j) = src then incr occ
    done;
    let found = ref None in
    let seen = ref 0 in
    Array.iteri
      (fun k' oj ->
        if !found = None && Remap.forward remap oj = Some src then
          if !seen = !occ then found := Some (k', oj) else incr seen)
      (Netlist.fanin original og);
    (match !found with
     | None -> None
     | Some (k', oj) ->
       if Array.length (Netlist.fanout original oj) > 1 then
         Some { f with site = Branch (og, k') }
       else Some { f with site = Stem oj })

let pp c ppf f =
  let sa = if f.stuck then 1 else 0 in
  match f.site with
  | Stem n -> Format.fprintf ppf "%s s-a-%d" (Netlist.name c n) sa
  | Branch (g, k) ->
    Format.fprintf ppf "%s->%s[%d] s-a-%d"
      (Netlist.name c (Netlist.fanin c g).(k))
      (Netlist.name c g) k sa

let to_string c f = Format.asprintf "%a" (pp c) f
