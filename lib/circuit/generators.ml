let full_adder b x y cin =
  let s1 = Builder.xor2 b x y in
  let sum = Builder.xor2 b s1 cin in
  let c1 = Builder.and2 b x y in
  let c2 = Builder.and2 b s1 cin in
  (sum, Builder.or2 b c1 c2)

let ripple_adder b xs ys cin =
  if Array.length xs <> Array.length ys then invalid_arg "Generators.ripple_adder: width mismatch";
  let w = Array.length xs in
  let sums = Array.make w cin in
  let carry = ref cin in
  for i = 0 to w - 1 do
    let s, c = full_adder b xs.(i) ys.(i) !carry in
    sums.(i) <- s;
    carry := c
  done;
  (sums, !carry)

let full_subtractor b x y bin =
  let d1 = Builder.xor2 b x y in
  let diff = Builder.xor2 b d1 bin in
  let b1 = Builder.and2 b (Builder.not_ b x) y in
  let b2 = Builder.and2 b (Builder.not_ b d1) bin in
  (diff, Builder.or2 b b1 b2)

let ripple_subtractor b xs ys =
  if Array.length xs <> Array.length ys then
    invalid_arg "Generators.ripple_subtractor: width mismatch";
  let w = Array.length xs in
  let diffs = Array.make w xs.(0) in
  let borrow = ref (Builder.const b false) in
  for i = 0 to w - 1 do
    let d, bo = full_subtractor b xs.(i) ys.(i) !borrow in
    diffs.(i) <- d;
    borrow := bo
  done;
  (diffs, !borrow)

let comparator_slice_7485 b ~a ~b:bb ~lt_in ~eq_in ~gt_in =
  if Array.length a <> 4 || Array.length bb <> 4 then
    invalid_arg "Generators.comparator_slice_7485: operands must be 4 bits";
  let e = Array.init 4 (fun i -> Builder.xnor2 b a.(i) bb.(i)) in
  (* The SN7485 AND-OR structure: a comparison decides at the most
     significant differing bit, guarded by the equality chain above it. *)
  let gt_terms =
    [ Builder.andn b [ a.(3); Builder.not_ b bb.(3) ];
      Builder.andn b [ e.(3); a.(2); Builder.not_ b bb.(2) ];
      Builder.andn b [ e.(3); e.(2); a.(1); Builder.not_ b bb.(1) ];
      Builder.andn b [ e.(3); e.(2); e.(1); a.(0); Builder.not_ b bb.(0) ] ]
  in
  let lt_terms =
    [ Builder.andn b [ Builder.not_ b a.(3); bb.(3) ];
      Builder.andn b [ e.(3); Builder.not_ b a.(2); bb.(2) ];
      Builder.andn b [ e.(3); e.(2); Builder.not_ b a.(1); bb.(1) ];
      Builder.andn b [ e.(3); e.(2); e.(1); Builder.not_ b a.(0); bb.(0) ] ]
  in
  let all_eq = Builder.andn b (Array.to_list e) in
  let cascade cin = match cin with None -> Builder.const b false | Some n -> n in
  let gt_local = Builder.orn b gt_terms in
  let lt_local = Builder.orn b lt_terms in
  let gt_out = Builder.or2 b gt_local (Builder.and2 b all_eq (cascade gt_in)) in
  let lt_out = Builder.or2 b lt_local (Builder.and2 b all_eq (cascade lt_in)) in
  let eq_out =
    match eq_in with None -> all_eq | Some e_in -> Builder.and2 b all_eq e_in
  in
  (lt_out, eq_out, gt_out)

let equality_comparator b xs ys =
  if Array.length xs <> Array.length ys then
    invalid_arg "Generators.equality_comparator: width mismatch";
  let eqs = Array.to_list (Array.map2 (fun x y -> Builder.xnor2 b x y) xs ys) in
  Builder.andn b eqs

let parity b xs =
  let rec reduce = function
    | [] -> Builder.const b false
    | [ x ] -> x
    | nodes ->
      let rec pair acc = function
        | [] -> List.rev acc
        | [ x ] -> List.rev (x :: acc)
        | x :: y :: rest -> pair (Builder.xor2 b x y :: acc) rest
      in
      reduce (pair [] nodes)
  in
  reduce (Array.to_list xs)

let decoder b sel =
  let n = Array.length sel in
  let nots = Array.map (Builder.not_ b) sel in
  Array.init (1 lsl n) (fun code ->
      let bits =
        List.init n (fun i -> if (code lsr i) land 1 = 1 then sel.(i) else nots.(i))
      in
      Builder.andn b bits)

let alu b ~op ~a ~b:bb ~cin =
  if Array.length op <> 3 then invalid_arg "Generators.alu: op must be 3 bits";
  if Array.length a <> Array.length bb then invalid_arg "Generators.alu: width mismatch";
  let w = Array.length a in
  let d = decoder b op in
  let add_r, add_c = ripple_adder b a bb cin in
  let sub_r, sub_b = ripple_subtractor b a bb in
  let and_r = Array.map2 (fun x y -> Builder.and2 b x y) a bb in
  let or_r = Array.map2 (fun x y -> Builder.or2 b x y) a bb in
  let xor_r = Array.map2 (fun x y -> Builder.xor2 b x y) a bb in
  let nota_r = Array.map (Builder.not_ b) a in
  let result =
    Array.init w (fun i ->
        Builder.orn b
          [ Builder.and2 b d.(0) add_r.(i);
            Builder.and2 b d.(1) sub_r.(i);
            Builder.and2 b d.(2) and_r.(i);
            Builder.and2 b d.(3) or_r.(i);
            Builder.and2 b d.(4) xor_r.(i);
            Builder.and2 b d.(5) nota_r.(i);
            Builder.and2 b d.(6) a.(i);
            Builder.and2 b d.(7) bb.(i) ])
  in
  let carry_out = Builder.or2 b (Builder.and2 b d.(0) add_c) (Builder.and2 b d.(1) sub_b) in
  let zero = Builder.gate b Gate.Nor (Array.to_list result) in
  (result, carry_out, zero)

(* --- Paper circuits ----------------------------------------------------- *)

let s1_comparator () =
  let b = Builder.create () in
  let a_bits = Builder.inputs b "a" 24 in
  let b_bits = Builder.inputs b "b" 24 in
  let slice j (lt, eq, gt) =
    let sub arr = Array.sub arr (4 * j) 4 in
    comparator_slice_7485 b ~a:(sub a_bits) ~b:(sub b_bits) ~lt_in:lt ~eq_in:eq ~gt_in:gt
  in
  let rec cascade j acc =
    if j = 6 then acc
    else begin
      let lt, eq, gt = acc in
      cascade (j + 1) (slice j (lt, eq, gt) |> fun (l, e, g) -> (Some l, Some e, Some g))
    end
  in
  (* Slice 0 covers the least significant nibble with the (0,1,0) constant
     cascade assignment; constants fold away. *)
  let lt, eq, gt = cascade 0 (None, None, None) in
  let get = function Some n -> n | None -> assert false in
  Builder.output b ~name:"a_lt_b" (get lt);
  Builder.output b ~name:"a_eq_b" (get eq);
  Builder.output b ~name:"a_gt_b" (get gt);
  Builder.finalize b

(* Non-restoring array divider built from controlled add/subtract (CAS)
   rows: every cell output feeds the next row, so — unlike a restoring
   array with its discarded difference bits — almost no fault is
   structurally untestable.  The partial remainder is kept in (width+2)-bit
   two's complement; row control T = 1 subtracts the divisor, T = 0 adds
   it, following the sign of the previous partial remainder. *)
let s2_divider ?(width = 16) () =
  if width < 2 then invalid_arg "Generators.s2_divider: width must be >= 2";
  let b = Builder.create () in
  let dividend = Builder.inputs b "d" width in
  let divisor = Builder.inputs b "v" width in
  let zero = Builder.const b false in
  let wp = width + 2 in
  let v_ext = Array.append divisor [| zero; zero |] in
  (* One CAS row: p + (v xor T) + T, i.e. p - v when T=1 and p + v when
     T=0 (two's complement). *)
  let cas_row p t =
    let bx = Array.map (fun vj -> Builder.xor2 b vj t) v_ext in
    let sums, _carry = ripple_adder b p bx t in
    sums
  in
  let p = ref (Array.make wp zero) in
  let quotient = Array.make width zero in
  let t = ref (Builder.const b true) in
  for i = width - 1 downto 0 do
    (* Shift the partial remainder left, inserting the next dividend bit;
       |P| < V keeps the doubled value inside wp-bit two's complement. *)
    let shifted = Array.init wp (fun j -> if j = 0 then dividend.(i) else !p.(j - 1)) in
    let sums = cas_row shifted !t in
    p := sums;
    let sign = sums.(wp - 1) in
    quotient.(i) <- Builder.not_ b sign;
    t := Builder.not_ b sign
  done;
  (* Final correction: a negative partial remainder gets the divisor added
     back (the addend is V masked by the sign). *)
  let sign = !p.(wp - 1) in
  let vmask = Array.map (fun vj -> Builder.and2 b sign vj) v_ext in
  let remainder, _ = ripple_adder b !p vmask zero in
  Array.iteri (fun i q -> Builder.output b ~name:(Printf.sprintf "q%d" i) q) quotient;
  Array.iteri
    (fun j r -> if j < width then Builder.output b ~name:(Printf.sprintf "r%d" j) r)
    remainder;
  (* Status flags of the real datapath: divide-by-zero, the q = 1 fast path
     (dividend equal to divisor) and quotient overflow-to-maximum (all
     quotient bits set, i.e. v = 1 and d = 2^w - 1, a 4^-w event).  These
     flags are what makes the divider random-pattern resistant like the
     paper's S2: its Table 1 entry needs ~10^11 equiprobable patterns. *)
  Builder.output b ~name:"div0" (Builder.gate b Gate.Nor (Array.to_list divisor));
  Builder.output b ~name:"q_one" (equality_comparator b dividend divisor);
  Builder.output b ~name:"q_max" (Builder.andn b (Array.to_list quotient));
  Builder.finalize b

(* --- ISCAS-85-like circuits --------------------------------------------- *)

let c432ish () =
  let b = Builder.create () in
  let channels = Array.init 4 (fun j -> Builder.inputs b (Printf.sprintf "ch%d_r" j) 8) in
  let enables = Builder.inputs b "en" 4 in
  (* The enable gating keeps every channel's activity probability near 0.5,
     which is what makes the real C432 an easy random-test target. *)
  let active =
    Array.mapi (fun j ch -> Builder.and2 b enables.(j) (Builder.orn b (Array.to_list ch))) channels
  in
  let grant =
    Array.init 4 (fun j ->
        if j = 0 then active.(0)
        else begin
          let higher = Array.to_list (Array.sub active 0 j) in
          Builder.and2 b active.(j) (Builder.gate b Gate.Nor higher)
        end)
  in
  for i = 0 to 7 do
    let terms = List.init 4 (fun j -> Builder.and2 b grant.(j) channels.(j).(i)) in
    Builder.output b ~name:(Printf.sprintf "line%d" i) (Builder.orn b terms)
  done;
  Builder.output b ~name:"code1" (Builder.or2 b grant.(2) grant.(3));
  Builder.output b ~name:"code0" (Builder.or2 b grant.(1) grant.(3));
  Builder.output b ~name:"any" (Builder.orn b (Array.to_list active));
  Builder.finalize b

(* Single-error-correcting core shared by c499ish / c1355ish / c1908ish.
   Data bit i carries the injective nonzero signature (i * 7 mod 255) + 1 in
   [r] syndrome bits; the decode lines are r-input ANDs. *)
let sec_core ~xor2 ~data_bits ~check_bits ~ded b =
  let data = Builder.inputs b "d" data_bits in
  let check = Builder.inputs b "c" check_bits in
  let sig_of i = ((i * 7) mod 255) + 1 in
  let xor_list nodes =
    match nodes with
    | [] -> Builder.const b false
    | first :: rest -> List.fold_left (fun acc n -> xor2 b acc n) first rest
  in
  let syndrome =
    Array.init check_bits (fun k ->
        let members =
          List.filter (fun i -> (sig_of i lsr k) land 1 = 1) (List.init data_bits Fun.id)
        in
        xor_list (check.(k) :: List.map (fun i -> data.(i)) members))
  in
  let syn_not = Array.map (Builder.not_ b) syndrome in
  let corrected =
    Array.init data_bits (fun i ->
        let s = sig_of i in
        let match_bits =
          List.init check_bits (fun k ->
              if (s lsr k) land 1 = 1 then syndrome.(k) else syn_not.(k))
        in
        let decode = Builder.andn b match_bits in
        xor2 b data.(i) decode)
  in
  Array.iteri (fun i n -> Builder.output b ~name:(Printf.sprintf "o%d" i) n) corrected;
  if ded then begin
    (* Double-error detect: nonzero syndrome with even overall parity. *)
    let p = Builder.input b "p" in
    let overall = xor_list (p :: Array.to_list data @ Array.to_list check) in
    let nonzero = Builder.orn b (Array.to_list syndrome) in
    Builder.output b ~name:"ded" (Builder.and2 b nonzero (Builder.not_ b overall));
    (* Special-value detector (all-ones word), a moderately random-resistant
       cone like the real C1908's. *)
    Builder.output b ~name:"allones" (Builder.andn b (Array.to_list data))
  end

let c499ish () =
  let b = Builder.create () in
  sec_core ~xor2:Builder.xor2 ~data_bits:32 ~check_bits:8 ~ded:false b;
  Builder.finalize b

let c1355ish () =
  let b = Builder.create () in
  (* XOR expanded into four NAND2s, as C1355 expands C499. *)
  let nand_xor b x y =
    let t1 = Builder.nand2 b x y in
    let t2 = Builder.nand2 b x t1 in
    let t3 = Builder.nand2 b y t1 in
    Builder.nand2 b t2 t3
  in
  sec_core ~xor2:nand_xor ~data_bits:32 ~check_bits:8 ~ded:false b;
  Builder.finalize b

let c1908ish () =
  let b = Builder.create () in
  sec_core ~xor2:Builder.xor2 ~data_bits:16 ~check_bits:5 ~ded:true b;
  Builder.finalize b

let c880ish () =
  let b = Builder.create () in
  let a = Builder.inputs b "a" 8 in
  let bb = Builder.inputs b "b" 8 in
  let op = Builder.inputs b "op" 3 in
  let cin = Builder.input b "cin" in
  let en = Builder.inputs b "en" 2 in
  let result, cout, zero = alu b ~op ~a ~b:bb ~cin in
  let en_ok = Builder.and2 b en.(0) en.(1) in
  Array.iteri
    (fun i r -> Builder.output b ~name:(Printf.sprintf "f%d" i) (Builder.and2 b en_ok r))
    result;
  Builder.output b ~name:"cout" cout;
  Builder.output b ~name:"zero" zero;
  Builder.output b ~name:"par" (parity b a);
  Builder.output b ~name:"a_eq_b" (equality_comparator b a bb);
  Builder.finalize b

let c2670ish () =
  let b = Builder.create () in
  let a = Builder.inputs b "a" 12 in
  let bb = Builder.inputs b "b" 12 in
  let op = Builder.inputs b "op" 3 in
  let cin = Builder.input b "cin" in
  let en = Builder.inputs b "en" 4 in
  let ea = Builder.inputs b "ea" 16 in
  let eb = Builder.inputs b "eb" 16 in
  let result, cout, zero = alu b ~op ~a ~b:bb ~cin in
  Array.iteri (fun i r -> Builder.output b ~name:(Printf.sprintf "f%d" i) r) result;
  Builder.output b ~name:"cout" cout;
  Builder.output b ~name:"zero" zero;
  (* The random-resistant part: a 16-bit equality behind a 4-deep enable
     chain; detection of its stuck-at-0 needs a 2^-20 event under
     equiprobable patterns. *)
  let eq = equality_comparator b ea eb in
  let en_ok = Builder.andn b (Array.to_list en) in
  Builder.output b ~name:"eq_en" (Builder.and2 b eq en_ok);
  Builder.output b ~name:"par_a" (parity b ea);
  Builder.finalize b

let c3540ish () =
  let b = Builder.create () in
  let a = Builder.inputs b "a" 8 in
  let bb = Builder.inputs b "b" 8 in
  let op = Builder.inputs b "op" 3 in
  let cin = Builder.input b "cin" in
  let mode = Builder.inputs b "mode" 2 in
  let result, cout, zero = alu b ~op ~a ~b:bb ~cin in
  (* BCD adjust of the low nibble when mode = 01: add 6 if nibble > 9. *)
  let lo = Array.sub result 0 4 in
  let gt9 = Builder.and2 b lo.(3) (Builder.or2 b lo.(2) lo.(1)) in
  let six = [| Builder.const b false; Builder.const b true; Builder.const b true;
               Builder.const b false |] in
  let adj, _ = ripple_adder b lo six (Builder.const b false) in
  let do_adj = Builder.andn b [ gt9; mode.(0); Builder.not_ b mode.(1) ] in
  let adjusted = Array.init 4 (fun i -> Builder.mux b ~sel:do_adj lo.(i) adj.(i)) in
  Array.iteri (fun i r -> Builder.output b ~name:(Printf.sprintf "f%d" i) r) adjusted;
  Array.iteri (fun i r -> Builder.output b ~name:(Printf.sprintf "f%d" (i + 4)) r)
    (Array.sub result 4 4);
  Builder.output b ~name:"cout" cout;
  Builder.output b ~name:"zero" zero;
  Builder.output b ~name:"ovf" (Builder.xor2 b cout result.(7));
  Builder.output b ~name:"a_eq_b" (equality_comparator b a bb);
  Builder.finalize b

let c5315ish () =
  let b = Builder.create () in
  let a = Builder.inputs b "a" 9 in
  let bb = Builder.inputs b "b" 9 in
  let op = Builder.inputs b "op" 3 in
  let cin = Builder.input b "cin" in
  let result, cout, zero = alu b ~op ~a ~b:bb ~cin in
  Array.iteri (fun i r -> Builder.output b ~name:(Printf.sprintf "f%d" i) r) result;
  Builder.output b ~name:"cout" cout;
  Builder.output b ~name:"zero" zero;
  let _, borrow = ripple_subtractor b a bb in
  let eq = equality_comparator b a bb in
  Builder.output b ~name:"a_lt_b" borrow;
  Builder.output b ~name:"a_eq_b" eq;
  Builder.output b ~name:"a_gt_b" (Builder.nor2 b borrow eq);
  Builder.output b ~name:"par" (parity b (Array.append a bb));
  Builder.finalize b

let c6288ish ?(width = 16) () =
  if width < 2 then invalid_arg "Generators.c6288ish: width must be >= 2";
  let b = Builder.create () in
  let a = Builder.inputs b "a" width in
  let bb = Builder.inputs b "b" width in
  (* School-book array multiplier.  Invariant before processing row j: the
     product of rows 0..j-1 equals the fixed output bits p_0..p_{j-2} plus
     H * 2^(j-1), with H of width+1 bits.  Each step computes
     S = H + (row_j << 1) and peels off S_0 as the next output bit. *)
  let zero = Builder.const b false in
  let pp i j = Builder.and2 b a.(i) bb.(j) in
  let h = ref (Array.append (Array.init width (fun i -> pp i 0)) [| zero |]) in
  let low_bits = ref [] in
  for j = 1 to width - 1 do
    let row_sh = Array.append [| zero |] (Array.init width (fun i -> pp i j)) in
    let s, cout = ripple_adder b !h row_sh zero in
    low_bits := s.(0) :: !low_bits;
    h := Array.append (Array.sub s 1 width) [| cout |]
  done;
  List.iteri
    (fun k n -> Builder.output b ~name:(Printf.sprintf "p%d" (width - 2 - k)) n)
    !low_bits;
  Array.iteri
    (fun i n -> Builder.output b ~name:(Printf.sprintf "p%d" (width - 1 + i)) n)
    !h;
  Builder.finalize b

let c7552ish () =
  let b = Builder.create () in
  let a = Builder.inputs b "a" 32 in
  let bb = Builder.inputs b "b" 32 in
  let cin = Builder.input b "cin" in
  let sums, cout = ripple_adder b a bb cin in
  Array.iteri (fun i s -> Builder.output b ~name:(Printf.sprintf "s%d" i) s) sums;
  Builder.output b ~name:"cout" cout;
  (* 32-bit magnitude comparator from eight cascaded SN7485-style slices:
     the equality chain makes this random-resistant like the real C7552. *)
  let rec cascade j acc =
    if j = 8 then acc
    else begin
      let lt, eq, gt = acc in
      let sub arr = Array.sub arr (4 * j) 4 in
      let l, e, g =
        comparator_slice_7485 b ~a:(sub a) ~b:(sub bb) ~lt_in:lt ~eq_in:eq ~gt_in:gt
      in
      cascade (j + 1) (Some l, Some e, Some g)
    end
  in
  let lt, eq, gt = cascade 0 (None, None, None) in
  let get = function Some n -> n | None -> assert false in
  Builder.output b ~name:"a_lt_b" (get lt);
  Builder.output b ~name:"a_eq_b" (get eq);
  Builder.output b ~name:"a_gt_b" (get gt);
  Builder.output b ~name:"par_a" (parity b a);
  Builder.output b ~name:"par_b" (parity b bb);
  Builder.finalize b

(* --- Pathological and synthetic ------------------------------------------ *)

let antagonist ?(k = 12) () =
  let b = Builder.create () in
  let xs = Builder.inputs b "x" k in
  Builder.output b ~name:"all_ones" (Builder.andn b (Array.to_list xs));
  Builder.output b ~name:"all_zeros" (Builder.gate b Gate.Nor (Array.to_list xs));
  Builder.finalize b

let wide_and n =
  let b = Builder.create () in
  let xs = Builder.inputs b "x" n in
  Builder.output b ~name:"y" (Builder.andn b (Array.to_list xs));
  Builder.finalize b

let random_circuit ~inputs ~gates ~seed =
  if inputs < 2 || gates < 1 then invalid_arg "Generators.random_circuit";
  let rng = Rt_util.Rng.create seed in
  let b = Builder.create ~fold:false ~prune:false () in
  let ins = Builder.inputs b "x" inputs in
  let nodes = ref (Array.to_list ins) in
  let count = ref inputs in
  let kinds = [| Gate.And; Gate.Or; Gate.Nand; Gate.Nor; Gate.Xor; Gate.Not |] in
  let pick_distinct n =
    (* Sample n distinct existing nodes, biased towards recent ones for
       depth. *)
    let pool = Array.of_list !nodes in
    let len = Array.length pool in
    let chosen = Hashtbl.create 8 in
    let rec draw acc need =
      if need = 0 then acc
      else begin
        let idx =
          if Rt_util.Rng.bool rng then len - 1 - Rt_util.Rng.int rng (min len (1 + (len / 4)))
          else Rt_util.Rng.int rng len
        in
        if Hashtbl.mem chosen idx then draw acc need
        else begin
          Hashtbl.add chosen idx ();
          draw (pool.(idx) :: acc) (need - 1)
        end
      end
    in
    draw [] (min n len)
  in
  let read = Hashtbl.create (inputs + gates) in
  for _ = 1 to gates do
    let k = kinds.(Rt_util.Rng.int rng (Array.length kinds)) in
    let arity = if k = Gate.Not then 1 else 2 + Rt_util.Rng.int rng 3 in
    let fanin = pick_distinct arity in
    List.iter (fun f -> Hashtbl.replace read f ()) fanin;
    let g = Builder.gate b k fanin in
    nodes := g :: !nodes;
    incr count
  done;
  (* Unread nodes (gates and inputs alike) become primary outputs so that
     every gate is observable and every input fault detectable. *)
  List.iter (fun n -> if not (Hashtbl.mem read n) then Builder.output b n) (List.rev !nodes);
  Builder.finalize b

let paper_suite =
  [ ("s1", s1_comparator);
    ("s2", fun () -> s2_divider ());
    ("c432ish", c432ish);
    ("c499ish", c499ish);
    ("c880ish", c880ish);
    ("c1355ish", c1355ish);
    ("c1908ish", c1908ish);
    ("c2670ish", c2670ish);
    ("c3540ish", c3540ish);
    ("c5315ish", c5315ish);
    ("c6288ish", fun () -> c6288ish ());
    ("c7552ish", c7552ish) ]

let by_name name =
  match List.assoc_opt name paper_suite with
  | Some g -> Some g
  | None ->
    (match name with
     | "antagonist" -> Some (fun () -> antagonist ())
     | _ ->
       (* Parameterised forms: "s2:W" / "c6288ish:W" (operand width) and
          "wide_and-N". *)
       (match String.index_opt name ':' with
        | Some i ->
          let base = String.sub name 0 i in
          (match int_of_string_opt (String.sub name (i + 1) (String.length name - i - 1)) with
           | Some w when w > 0 ->
             (match base with
              | "s2" -> Some (fun () -> s2_divider ~width:w ())
              | "c6288ish" -> Some (fun () -> c6288ish ~width:w ())
              | _ -> None)
           | Some _ | None -> None)
        | None ->
          (match String.index_opt name '-' with
           | Some i when String.sub name 0 i = "wide_and" ->
             (try
                let n = int_of_string (String.sub name (i + 1) (String.length name - i - 1)) in
                Some (fun () -> wide_and n)
              with Failure _ -> None)
           | _ -> None)))
