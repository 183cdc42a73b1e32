(* Fixpoint netlist simplification (see passes.mli for the pass contract).

   Every pass is expressed as an action table over the old node ids —
   Keep / Replace (new kind+fanins) / Alias (bypass to an earlier node) /
   Drop — handed to one [rebuild] function that resolves alias chains,
   renumbers the survivors in old order, maps fanins and outputs, and
   returns the new netlist plus the Remap.  [Netlist.make] re-validates
   arities, topological order and name uniqueness on every rebuild, so a
   buggy pass fails loudly instead of corrupting downstream stages. *)

module Remap = struct
  type t = {
    fwd : int array;  (* old -> new (alias-resolved), -1 when the signal is gone *)
    bwd : int array;  (* new -> the old node it came from *)
  }

  let identity n = { fwd = Array.init n Fun.id; bwd = Array.init n Fun.id }

  let forward r o =
    let v = r.fwd.(o) in
    if v < 0 then None else Some v

  let back r n = r.bwd.(n)

  let compose first second =
    { fwd = Array.map (fun m -> if m < 0 then -1 else second.fwd.(m)) first.fwd;
      bwd = Array.map (fun m -> first.bwd.(m)) second.bwd }

  let size_before r = Array.length r.fwd
  let size_after r = Array.length r.bwd

  let is_identity r =
    size_before r = size_after r
    &&
    let ok = ref true in
    Array.iteri (fun i v -> if v <> i then ok := false) r.fwd;
    !ok
end

type action =
  | Keep
  | Replace of Gate.kind * int array  (* fanins as old ids *)
  | Alias of int  (* bypass: readers use this (earlier) old node instead *)
  | Drop

(* Passes only produce non-Keep actions for genuine rewrites, so "any
   action <> Keep" is the changed flag. *)
let rebuild c actions =
  let n = Netlist.size c in
  let changed = ref false in
  (* Alias chains resolve downward: an alias target is always an earlier
     node, so its own resolution is already final. *)
  let resolve = Array.make n (-1) in
  for i = 0 to n - 1 do
    resolve.(i) <-
      (match actions.(i) with
       | Alias j ->
         changed := true;
         let r = resolve.(j) in
         if r < 0 then invalid_arg "Passes.rebuild: alias to a dropped node";
         r
       | Drop ->
         changed := true;
         -1
       | Keep -> i
       | Replace _ ->
         changed := true;
         i)
  done;
  if not !changed then None
  else begin
    let newid = Array.make n (-1) in
    let count = ref 0 in
    for i = 0 to n - 1 do
      match actions.(i) with
      | Keep | Replace _ ->
        newid.(i) <- !count;
        incr count
      | Alias _ | Drop -> ()
    done;
    let m = !count in
    let kinds = Array.make m Gate.Input in
    let fanins = Array.make m [||] in
    let names = Array.make m "" in
    let bwd = Array.make m 0 in
    let map_old j =
      let r = resolve.(j) in
      if r < 0 then invalid_arg "Passes.rebuild: live node reads a dropped signal";
      newid.(r)
    in
    for i = 0 to n - 1 do
      if newid.(i) >= 0 then begin
        let k, fi =
          match actions.(i) with
          | Keep -> (Netlist.kind c i, Netlist.fanin c i)
          | Replace (k, f) -> (k, f)
          | Alias _ | Drop -> assert false
        in
        let ni = newid.(i) in
        kinds.(ni) <- k;
        fanins.(ni) <- Array.map map_old fi;
        names.(ni) <- Netlist.name c i;
        bwd.(ni) <- i
      end
    done;
    let output_list = Array.to_list (Array.map map_old (Netlist.outputs c)) in
    let fwd = Array.init n (fun i -> if resolve.(i) < 0 then -1 else newid.(resolve.(i))) in
    Some (Netlist.make ~kinds ~fanins ~names ~output_list, { Remap.fwd; bwd })
  end

(* --- constant folding ------------------------------------------------------- *)

(* Gate simplification given the split of its fanins into constant values
   and variable (old-id) fanins; only called when [consts <> []].  Same
   algebra as Builder.fold_gate, restated over netlist ids. *)
let fold_kind k ~consts ~vars =
  match k with
  | Gate.Input | Gate.Const0 | Gate.Const1 -> `Keep
  | Gate.Buf -> (match consts with [ v ] -> `Const v | _ -> `Keep)
  | Gate.Not -> (match consts with [ v ] -> `Const (not v) | _ -> `Keep)
  | Gate.And | Gate.Nand ->
    let inv = k = Gate.Nand in
    if List.mem false consts then `Const inv
    else begin
      match vars with
      | [] -> `Const (not inv)
      | [ x ] -> if inv then `Inv x else `Wire x
      | _ :: _ :: _ -> `Rebuild ((if inv then Gate.Nand else Gate.And), vars)
    end
  | Gate.Or | Gate.Nor ->
    let inv = k = Gate.Nor in
    if List.mem true consts then `Const (not inv)
    else begin
      match vars with
      | [] -> `Const inv
      | [ x ] -> if inv then `Inv x else `Wire x
      | _ :: _ :: _ -> `Rebuild ((if inv then Gate.Nor else Gate.Or), vars)
    end
  | Gate.Xor | Gate.Xnor ->
    let flip = List.fold_left (fun acc v -> acc <> v) (k = Gate.Xnor) consts in
    (match vars with
     | [] -> `Const flip
     | [ x ] -> if flip then `Inv x else `Wire x
     | _ :: _ :: _ -> `Rebuild ((if flip then Gate.Xnor else Gate.Xor), vars))

let const_fold_run c =
  let n = Netlist.size c in
  let actions = Array.make n Keep in
  (* Constant value of each node *after* this pass; the sweep is
     topological, so a fold cascades through its readers immediately. *)
  let cval = Array.make n None in
  for i = 0 to n - 1 do
    match Netlist.kind c i with
    | Gate.Input -> ()
    | Gate.Const0 -> cval.(i) <- Some false
    | Gate.Const1 -> cval.(i) <- Some true
    | k ->
      let consts = ref [] and vars = ref [] in
      Array.iter
        (fun j ->
          match cval.(j) with
          | Some v -> consts := v :: !consts
          | None -> vars := j :: !vars)
        (Netlist.fanin c i);
      if !consts <> [] then begin
        match fold_kind k ~consts:(List.rev !consts) ~vars:(List.rev !vars) with
        | `Keep -> ()
        | `Const v ->
          cval.(i) <- Some v;
          actions.(i) <- Replace ((if v then Gate.Const1 else Gate.Const0), [||])
        | `Wire x ->
          actions.(i) <-
            (if Netlist.is_output c i then Replace (Gate.Buf, [| x |]) else Alias x)
        | `Inv x -> actions.(i) <- Replace (Gate.Not, [| x |])
        | `Rebuild (k', vars) -> actions.(i) <- Replace (k', Array.of_list vars)
      end
  done;
  rebuild c actions

(* --- identity-gate collapsing ------------------------------------------------ *)

let collapse_identity_run c =
  let n = Netlist.size c in
  let actions = Array.make n Keep in
  for i = 0 to n - 1 do
    let out = Netlist.is_output c i in
    let wire x = if out then Replace (Gate.Buf, [| x |]) else Alias x in
    match Netlist.kind c i with
    | Gate.Buf -> if not out then actions.(i) <- Alias (Netlist.fanin c i).(0)
    | Gate.Not ->
      let j = (Netlist.fanin c i).(0) in
      if Netlist.kind c j = Gate.Not then actions.(i) <- wire (Netlist.fanin c j).(0)
    | Gate.And | Gate.Or | Gate.Xor ->
      let fi = Netlist.fanin c i in
      if Array.length fi = 1 then actions.(i) <- wire fi.(0)
    | Gate.Nand | Gate.Nor | Gate.Xnor ->
      let fi = Netlist.fanin c i in
      if Array.length fi = 1 then actions.(i) <- Replace (Gate.Not, [| fi.(0) |])
    | Gate.Input | Gate.Const0 | Gate.Const1 -> ()
  done;
  rebuild c actions

(* --- dead-cone elimination --------------------------------------------------- *)

let dead_cone_run c =
  let n = Netlist.size c in
  let live = Array.make n false in
  let rec visit i =
    if not live.(i) then begin
      live.(i) <- true;
      Array.iter visit (Netlist.fanin c i)
    end
  in
  Array.iter visit (Netlist.outputs c);
  let actions = Array.make n Keep in
  let any = ref false in
  for i = 0 to n - 1 do
    if (not live.(i)) && Netlist.kind c i <> Gate.Input then begin
      actions.(i) <- Drop;
      any := true
    end
  done;
  if !any then rebuild c actions else None

(* --- fanout-aware re-levelization -------------------------------------------- *)

(* Sort key (level, tie, old id) with inputs pinned first inside level 0
   (their relative order is load-bearing) and higher-fanout nodes earlier
   within a level.  Idempotent: after renumbering, new ids ascend in
   exactly this key order, so a second sort is the identity.

   Two stable counting sorts produce that order in linear time.  Ids
   enter ascending; the first pass sorts them by tie rank (inputs 0, then
   fanout [f] at rank [1 + max_fanout - f], so higher fanout ranks
   lower), the second by level.  Stability keeps ascending ids inside
   each tie rank and the tie order inside each level, which is the
   lexicographic (level, tie, id) order. *)
let counting_sort ~buckets key src =
  let start = Array.make (buckets + 1) 0 in
  Array.iter (fun i -> start.(key i + 1) <- start.(key i + 1) + 1) src;
  for b = 1 to buckets do
    start.(b) <- start.(b) + start.(b - 1)
  done;
  let dst = Array.make (Array.length src) 0 in
  Array.iter
    (fun i ->
      let b = key i in
      dst.(start.(b)) <- i;
      start.(b) <- start.(b) + 1)
    src;
  dst

let level_order c =
  let n = Netlist.size c in
  let max_fanout = ref 0 in
  for i = 0 to n - 1 do
    max_fanout := Int.max !max_fanout (Array.length (Netlist.fanout c i))
  done;
  let tie_rank i =
    match Netlist.kind c i with
    | Gate.Input -> 0
    | _ -> 1 + !max_fanout - Array.length (Netlist.fanout c i)
  in
  (* Ids already ascending in the key (a relevelled netlist, what the
     fault simulator usually compiles) need no sort and no sort buffers. *)
  let sorted = ref true in
  for i = 0 to n - 2 do
    let l = Netlist.level c i and l' = Netlist.level c (i + 1) in
    if l > l' || (l = l' && tie_rank i > tie_rank (i + 1)) then sorted := false
  done;
  let ids = Array.init n Fun.id in
  if !sorted then ids
  else
    counting_sort ~buckets:(Netlist.max_level c + 1) (Netlist.level c)
      (counting_sort ~buckets:(!max_fanout + 2) tie_rank ids)

let relevel_run c =
  let n = Netlist.size c in
  let order = level_order c in
  let ident = ref true in
  Array.iteri (fun ni oi -> if ni <> oi then ident := false) order;
  if !ident then None
  else begin
    let newid = Array.make n 0 in
    Array.iteri (fun ni oi -> newid.(oi) <- ni) order;
    let kinds = Array.make n Gate.Input in
    let fanins = Array.make n [||] in
    let names = Array.make n "" in
    for ni = 0 to n - 1 do
      let oi = order.(ni) in
      kinds.(ni) <- Netlist.kind c oi;
      fanins.(ni) <- Array.map (fun j -> newid.(j)) (Netlist.fanin c oi);
      names.(ni) <- Netlist.name c oi
    done;
    let output_list = Array.to_list (Array.map (fun o -> newid.(o)) (Netlist.outputs c)) in
    Some
      ( Netlist.make ~kinds ~fanins ~names ~output_list,
        { Remap.fwd = newid; bwd = order } )
  end

(* --- registry ---------------------------------------------------------------- *)

type pass = { p_name : string; p_run : Netlist.t -> (Netlist.t * Remap.t) option }

let pass_name p = p.p_name
let apply p c = p.p_run c

let const_fold = { p_name = "const-fold"; p_run = const_fold_run }
let collapse_identity = { p_name = "identity"; p_run = collapse_identity_run }
let dead_cone = { p_name = "dead-cone"; p_run = dead_cone_run }
let relevel = { p_name = "relevel"; p_run = relevel_run }

let all = [ const_fold; collapse_identity; dead_cone; relevel ]
let names = List.map pass_name all
let default_names = names
let by_name name = List.find_opt (fun p -> p.p_name = name) all

(* --- fixpoint driver ---------------------------------------------------------- *)

type pass_stat = { runs : int; changed : int; nodes_removed : int }
type stats = { rounds : int; per_pass : (string * pass_stat) list }

let run ?(rounds = 8) ?(passes = all) c =
  let acc =
    List.map (fun p -> (p, ref { runs = 0; changed = 0; nodes_removed = 0 })) passes
  in
  let cur = ref c in
  let remap = ref (Remap.identity (Netlist.size c)) in
  let round = ref 0 in
  let continue_ = ref (passes <> []) in
  while !continue_ && !round < rounds do
    incr round;
    let round_changed = ref false in
    List.iter
      (fun (p, stat) ->
        let result =
          Rt_obs.with_span ~cat:"opt" ("opt.pass." ^ p.p_name) (fun () -> p.p_run !cur)
        in
        let s = !stat in
        match result with
        | None -> stat := { s with runs = s.runs + 1 }
        | Some (c', r) ->
          let removed = Netlist.size !cur - Netlist.size c' in
          stat :=
            { runs = s.runs + 1;
              changed = s.changed + 1;
              nodes_removed = s.nodes_removed + removed };
          cur := c';
          remap := Remap.compose !remap r;
          round_changed := true)
      acc;
    if not !round_changed then continue_ := false
  done;
  ( !cur,
    !remap,
    { rounds = !round; per_pass = List.map (fun (p, stat) -> (p.p_name, !stat)) acc } )

let pp_stats ppf stats =
  List.iter
    (fun (name, s) ->
      Format.fprintf ppf "pass %-10s runs=%d changed=%d nodes_removed=%d@." name s.runs
        s.changed s.nodes_removed)
    stats.per_pass
