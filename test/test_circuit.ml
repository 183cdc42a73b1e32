(* Tests for Rt_circuit: gate semantics, netlist invariants, the builder's
   constant folding, the .bench format, cones, and every generator's
   functional correctness. *)

module Gate = Rt_circuit.Gate
module Netlist = Rt_circuit.Netlist
module Builder = Rt_circuit.Builder
module Generators = Rt_circuit.Generators
module Bench = Rt_circuit.Bench_format
module Cone = Rt_circuit.Cone

let check = Alcotest.check

let bits_of_int w v = Array.init w (fun i -> (v lsr i) land 1 = 1)

let output_value c out name =
  let rec find k =
    if k >= Array.length (Netlist.outputs c) then Alcotest.failf "no output %s" name
    else if Netlist.name c (Netlist.outputs c).(k) = name then out.(k)
    else find (k + 1)
  in
  find 0

(* Decode outputs named <prefix><index> as a little-endian integer. *)
let decode_int c out prefix =
  let v = ref 0 in
  Array.iteri
    (fun k o ->
      let name = Netlist.name c o in
      let pl = String.length prefix in
      if String.length name > pl && String.sub name 0 pl = prefix then begin
        match int_of_string_opt (String.sub name pl (String.length name - pl)) with
        | Some idx -> if out.(k) then v := !v lor (1 lsl idx)
        | None -> ()
      end)
    (Netlist.outputs c);
  !v

(* --- Gate semantics --------------------------------------------------------- *)

let all_gate_kinds = [ Gate.Buf; Gate.Not; Gate.And; Gate.Nand; Gate.Or; Gate.Nor; Gate.Xor; Gate.Xnor ]

let test_gate_prob_matches_enumeration () =
  (* With independent inputs the arithmetic embedding is exact: compare
     against explicit enumeration for a non-uniform distribution. *)
  let ps = [| 0.3; 0.7; 0.5 |] in
  List.iter
    (fun k ->
      let arity = match k with Gate.Buf | Gate.Not -> 1 | _ -> 3 in
      let ps = Array.sub ps 0 arity in
      let total = ref 0.0 in
      for assignment = 0 to (1 lsl arity) - 1 do
        let bools = Array.init arity (fun i -> (assignment lsr i) land 1 = 1) in
        let weight =
          Array.to_list (Array.mapi (fun i b -> if b then ps.(i) else 1.0 -. ps.(i)) bools)
          |> List.fold_left ( *. ) 1.0
        in
        if Gate.eval k bools then total := !total +. weight
      done;
      let p = Array.append ps [| Float.nan |] in
      Gate.set_prob k p ~fanin:(Array.init arity Fun.id) arity;
      let got = p.(arity) in
      if Float.abs (!total -. got) > 1e-9 then
        Alcotest.failf "gate %s prob: enum %.6f vs formula %.6f" (Gate.to_string k) !total got)
    all_gate_kinds

let test_gate_of_string () =
  check Alcotest.bool "nand" true (Gate.of_string "nand" = Some Gate.Nand);
  check Alcotest.bool "BUFF" true (Gate.of_string "BUFF" = Some Gate.Buf);
  check Alcotest.bool "dff rejected" true (Gate.of_string "DFF" = None)

let test_controlling_values () =
  check Alcotest.bool "and" true (Gate.controlling_value Gate.And = Some false);
  check Alcotest.bool "nor" true (Gate.controlling_value Gate.Nor = Some true);
  check Alcotest.bool "xor" true (Gate.controlling_value Gate.Xor = None)

(* --- Netlist / Builder -------------------------------------------------------- *)

let test_netlist_rejects_cycles () =
  Alcotest.check_raises "non-topological fanin"
    (Invalid_argument "Netlist.make: node 0 has non-topological fanin 0") (fun () ->
      ignore
        (Netlist.make ~kinds:[| Gate.Buf |] ~fanins:[| [| 0 |] |] ~names:[| "a" |]
           ~output_list:[ 0 ]))

let test_netlist_rejects_duplicate_names () =
  Alcotest.check_raises "duplicate name" (Invalid_argument "Netlist.make: duplicate name a")
    (fun () ->
      ignore
        (Netlist.make
           ~kinds:[| Gate.Input; Gate.Input |]
           ~fanins:[| [||]; [||] |] ~names:[| "a"; "a" |] ~output_list:[]))

let test_builder_basic () =
  let b = Builder.create () in
  let x = Builder.input b "x" in
  let y = Builder.input b "y" in
  Builder.output b ~name:"z" (Builder.and2 b x y);
  let c = Builder.finalize b in
  check Alcotest.int "inputs" 2 (Array.length (Netlist.inputs c));
  check Alcotest.int "outputs" 1 (Array.length (Netlist.outputs c));
  check Alcotest.(array bool) "and truth" [| true |] (Netlist.eval_outputs c [| true; true |]);
  check Alcotest.(array bool) "and truth 2" [| false |] (Netlist.eval_outputs c [| true; false |])

let test_builder_constant_folding () =
  let b = Builder.create () in
  let x = Builder.input b "x" in
  let zero = Builder.const b false in
  let one = Builder.const b true in
  (* AND with 0 folds to 0; OR with 0 folds to wire; XOR with 1 folds to
     inverter. *)
  let a = Builder.and2 b x zero in
  let o = Builder.or2 b x zero in
  let n = Builder.xor2 b x one in
  Builder.output b ~name:"a" a;
  Builder.output b ~name:"o" o;
  Builder.output b ~name:"n" n;
  let c = Builder.finalize b in
  List.iter
    (fun v ->
      let out = Netlist.eval_outputs c [| v |] in
      check Alcotest.bool "and0" false (output_value c out "a");
      check Alcotest.bool "or0" v (output_value c out "o");
      check Alcotest.bool "xor1" (not v) (output_value c out "n"))
    [ true; false ];
  (* No And/Or/Xor gate should survive folding. *)
  Netlist.iter_gates c (fun g ->
      match Netlist.kind c g with
      | Gate.And | Gate.Or | Gate.Xor -> Alcotest.fail "gate survived constant folding"
      | _ -> ())

let test_builder_prune () =
  let b = Builder.create () in
  let x = Builder.input b "x" in
  let _dead = Builder.not_ b (Builder.not_ b x) in
  Builder.output b ~name:"y" (Builder.buf b x) |> ignore;
  let c = Builder.finalize b in
  (* The two dead inverters must be pruned: input, kept buf, output alias. *)
  check Alcotest.int "pruned size" 3 (Netlist.size c)

let fold_equivalence_qcheck =
  (* Folding must never change circuit semantics: build the same random
     expression with folding on and off and compare on all inputs. *)
  QCheck.Test.make ~name:"constant folding preserves semantics" ~count:100
    QCheck.(pair (int_range 0 10_000) (int_range 2 5))
    (fun (seed, n_inputs) ->
      let build fold =
        let rng = Rt_util.Rng.create seed in
        let b = Builder.create ~fold ~prune:false () in
        let ins = Builder.inputs b "x" n_inputs in
        let nodes = ref (Array.to_list ins) in
        (* inject constants into the pool *)
        nodes := Builder.const b false :: Builder.const b true :: !nodes;
        for _ = 1 to 25 do
          let pool = Array.of_list !nodes in
          let pick () = pool.(Rt_util.Rng.int rng (Array.length pool)) in
          let kinds = [| Gate.And; Gate.Or; Gate.Nand; Gate.Nor; Gate.Xor; Gate.Xnor; Gate.Not |] in
          let k = kinds.(Rt_util.Rng.int rng 7) in
          let arity = if k = Gate.Not then 1 else 2 in
          let g = Builder.gate b k (List.init arity (fun _ -> pick ())) in
          nodes := g :: !nodes
        done;
        (match !nodes with last :: _ -> Builder.output b ~name:"out" last | [] -> ());
        Builder.finalize b
      in
      let cf = build true and cn = build false in
      let ok = ref true in
      for v = 0 to (1 lsl n_inputs) - 1 do
        let inp = bits_of_int n_inputs v in
        if Netlist.eval_outputs cf inp <> Netlist.eval_outputs cn inp then ok := false
      done;
      !ok)

(* --- Bench format ------------------------------------------------------------ *)

let test_bench_roundtrip_semantics () =
  List.iter
    (fun (_, gen) ->
      let c = gen () in
      let c2 = Bench.parse (Bench.to_string c) in
      let n = Array.length (Netlist.inputs c) in
      check Alcotest.int "same inputs" n (Array.length (Netlist.inputs c2));
      let rng = Rt_util.Rng.create 5 in
      for _ = 1 to 20 do
        let inp = Array.init n (fun _ -> Rt_util.Rng.bool rng) in
        if Netlist.eval_outputs c inp <> Netlist.eval_outputs c2 inp then
          Alcotest.fail "bench roundtrip changed semantics"
      done)
    [ ("s1", Generators.s1_comparator); ("c432ish", Generators.c432ish);
      ("c880ish", Generators.c880ish) ]

let test_bench_parse_errors () =
  let expect_error text =
    match Bench.parse text with
    | exception Bench.Parse_error _ -> ()
    | _ -> Alcotest.fail "expected parse error"
  in
  expect_error "g = FROB(a)\nINPUT(a)\n";
  expect_error "INPUT(a)\ng = AND(a, undeclared)\nOUTPUT(g)\n";
  expect_error "INPUT(a)\na = AND(a, a)\n";
  expect_error "g = AND(h)\nh = AND(g)\n"

let test_bench_error_lines () =
  (* Each one-line defect is reported at the line that holds it. *)
  List.iter
    (fun (what, text, line) ->
      match Bench.parse ~file:"t.bench" text with
      | exception Bench.Parse_error { file; line = l; _ } ->
        check Alcotest.string (what ^ " file") "t.bench" file;
        check Alcotest.int (what ^ " line") line l
      | _ -> Alcotest.failf "%s: expected a parse error" what)
    [ ("undeclared", "INPUT(a)\nOUTPUT(b)\nb = AND(a, c)\n", 3);
      ("cycle", "INPUT(a)\nOUTPUT(b)\nb = AND(b, a)\n", 3);
      ("duplicate", "INPUT(a)\nINPUT(a)\nOUTPUT(a)\n", 2);
      ("arity", "INPUT(a)\nOUTPUT(b)\nb = NOT(a, a)\n", 3);
      ("undeclared output", "INPUT(a)\nOUTPUT(z)\nb = NOT(a)\n", 2);
      ("no output", "INPUT(a)\nb = NOT(a)\nc = NOT(b)\n", 3);
      ("no output, no trailing newline", "INPUT(a)\nb = NOT(a)", 2) ]

let test_bench_out_of_order () =
  (* Declarations in any order must parse. *)
  let c = Bench.parse "OUTPUT(z)\nz = AND(x, y)\nINPUT(y)\nINPUT(x)\n" in
  check Alcotest.(array bool) "works" [| true |] (Netlist.eval_outputs c [| true; true |])

let test_bench_comments_and_blanks () =
  let c = Bench.parse "# header\n\nINPUT(a)\n  # indented comment\nOUTPUT(b)\nb = NOT(a) # trailing\n" in
  check Alcotest.(array bool) "not gate" [| false |] (Netlist.eval_outputs c [| true |])

(* --- Cones -------------------------------------------------------------------- *)

(* Nodes reachable from [root], itself included: one ascending sweep,
   since ids are topological.  The reference for the region checks. *)
let transitive_fanout c root =
  let mask = Array.make (Netlist.size c) false in
  mask.(root) <- true;
  for i = root + 1 to Netlist.size c - 1 do
    if Array.exists (fun j -> mask.(j)) (Netlist.fanin c i) then mask.(i) <- true
  done;
  mask

(* Primary inputs in the transitive fanin of [o], by a depth-first walk
   over fanins: an independent check on [transitive_fanout]. *)
let support c o =
  let seen = Array.make (Netlist.size c) false in
  let rec walk x =
    if not seen.(x) then begin
      seen.(x) <- true;
      Array.iter walk (Netlist.fanin c x)
    end
  in
  walk o;
  Array.of_list (List.filter (fun i -> seen.(i)) (Array.to_list (Netlist.inputs c)))

let test_cone_support () =
  let c = Generators.s1_comparator () in
  (* Every output of the full comparator depends on all 48 inputs. *)
  Array.iter
    (fun o -> check Alcotest.int "full support" 48 (Array.length (support c o)))
    (Netlist.outputs c);
  Array.iter
    (fun i ->
      let reached = transitive_fanout c i in
      Array.iter
        (fun o ->
          check Alcotest.bool "fanout sweep agrees with fanin walk"
            (Array.mem i (support c o)) reached.(o))
        (Netlist.outputs c))
    (Netlist.inputs c)

let test_transitive_fanout () =
  let c = Generators.c432ish () in
  let i0 = (Netlist.inputs c).(0) in
  let mask = transitive_fanout c i0 in
  check Alcotest.bool "contains itself" true mask.(i0);
  check Alcotest.bool "reaches an output" true
    (Array.exists (fun o -> mask.(o)) (Netlist.outputs c));
  (* The sweep equals a depth-first walk over fanouts from every node. *)
  for x = 0 to Netlist.size c - 1 do
    let seen = Array.make (Netlist.size c) false in
    let rec walk y =
      if not seen.(y) then begin
        seen.(y) <- true;
        Array.iter walk (Netlist.fanout c y)
      end
    in
    walk x;
    check Alcotest.(array bool) "sweep equals fanout walk" seen (transitive_fanout c x)
  done

(* A hand-built netlist with a node read on two pins (q), an output that
   also feeds a gate (p), a constant inside a region (k) and a dangling
   non-output gate (d). *)
let test_ffr_roots () =
  let kinds =
    Gate.[| Input; Input; Input; And; Or; Not; Nand; And; Buf; Const0; Or |]
  and fanins =
    [| [||]; [||]; [||]; [| 0; 1 |]; [| 3; 2 |]; [| 4 |]; [| 5; 2 |]; [| 6; 6 |]; [| 7 |]; [||];
       [| 9; 0 |] |]
  in
  let names = [| "a"; "b"; "c"; "x"; "y"; "p"; "q"; "r"; "s"; "k"; "d" |] in
  let c = Netlist.make ~kinds ~fanins ~names ~output_list:[ 5; 8 ] in
  check (Alcotest.array Alcotest.int) "roots" [| 0; 5; 2; 5; 5; 5; 6; 8; 8; 10; 10 |]
    (Cone.ffr_roots c);
  (* On a generated circuit: a non-root is no output and has exactly one
     reader, in its region, and everything it reaches outside its own
     region lies beyond the root. *)
  let c = Generators.c432ish () in
  let root = Cone.ffr_roots c in
  for i = 0 to Netlist.size c - 1 do
    let r = root.(i) in
    check Alcotest.int "a root is its own root" r root.(r);
    if r <> i then begin
      if Netlist.is_output c i then Alcotest.failf "output %d inside a region" i;
      (match Netlist.fanout c i with
       | [| g |] -> check Alcotest.int "reader in the region" r root.(g)
       | _ -> Alcotest.failf "node %d in a region without exactly one reader" i);
      let beyond = transitive_fanout c r in
      Array.iteri
        (fun j reached ->
          if reached && not (beyond.(j) || (root.(j) = r && j < r)) then
            Alcotest.failf "node %d reaches %d around its root %d" i j r)
        (transitive_fanout c i)
    end
  done

(* --- Generators functional correctness ------------------------------------------ *)

let test_multiplier_exhaustive () =
  let m = Generators.c6288ish ~width:4 () in
  for a = 0 to 15 do
    for b = 0 to 15 do
      let out = Netlist.eval_outputs m (Array.append (bits_of_int 4 a) (bits_of_int 4 b)) in
      check Alcotest.int (Printf.sprintf "%d*%d" a b) (a * b) (decode_int m out "p")
    done
  done

let test_divider_exhaustive () =
  let d = Generators.s2_divider ~width:4 () in
  for dd = 0 to 15 do
    for v = 1 to 15 do
      let out = Netlist.eval_outputs d (Array.append (bits_of_int 4 dd) (bits_of_int 4 v)) in
      check Alcotest.int (Printf.sprintf "%d/%d q" dd v) (dd / v) (decode_int d out "q");
      check Alcotest.int (Printf.sprintf "%d/%d r" dd v) (dd mod v) (decode_int d out "r");
      check Alcotest.bool "div0 flag" false (output_value d out "div0");
      check Alcotest.bool "q_one flag" (dd = v) (output_value d out "q_one");
      check Alcotest.bool "q_max flag" (dd / v = 15) (output_value d out "q_max")
    done;
    (* divide by zero flag *)
    let out = Netlist.eval_outputs d (Array.append (bits_of_int 4 dd) (bits_of_int 4 0)) in
    check Alcotest.bool "div0 raised" true (output_value d out "div0")
  done

let s1_lazy = lazy (Generators.s1_comparator ())

let comparator_qcheck =
  QCheck.Test.make ~name:"s1 comparator matches integer comparison" ~count:500
    QCheck.(pair (int_bound ((1 lsl 24) - 1)) (int_bound ((1 lsl 24) - 1)))
    (fun (a, b) ->
      let c = Lazy.force s1_lazy in
      let out = Netlist.eval_outputs c (Array.append (bits_of_int 24 a) (bits_of_int 24 b)) in
      output_value c out "a_lt_b" = (a < b)
      && output_value c out "a_eq_b" = (a = b)
      && output_value c out "a_gt_b" = (a > b))

let c7552_lazy = lazy (Generators.c7552ish ())

let adder_qcheck =
  QCheck.Test.make ~name:"c7552ish adder sums correctly" ~count:300
    QCheck.(triple (int_bound 0xFFFFFF) (int_bound 0xFFFFFF) bool)
    (fun (a, b, cin) ->
      let c = Lazy.force c7552_lazy in
      let inp = Array.concat [ bits_of_int 32 a; bits_of_int 32 b; [| cin |] ] in
      let out = Netlist.eval_outputs c inp in
      let s = decode_int c out "s" in
      let cout = output_value c out "cout" in
      let expect = a + b + if cin then 1 else 0 in
      s = expect land 0xFFFFFFFF && cout = (expect > 0xFFFFFFFF))

let test_alu_operations () =
  let b = Builder.create () in
  let op = Builder.inputs b "op" 3 in
  let a = Builder.inputs b "a" 4 in
  let bb = Builder.inputs b "b" 4 in
  let cin = Builder.input b "cin" in
  let result, cout, zero = Generators.alu b ~op ~a ~b:bb ~cin in
  Array.iteri (fun i r -> Builder.output b ~name:(Printf.sprintf "f%d" i) r) result;
  Builder.output b ~name:"cout" cout;
  Builder.output b ~name:"zero" zero;
  let c = Builder.finalize b in
  let run opc av bv cinv =
    let inp = Array.concat [ bits_of_int 3 opc; bits_of_int 4 av; bits_of_int 4 bv; [| cinv |] ] in
    let out = Netlist.eval_outputs c inp in
    (decode_int c out "f", output_value c out "zero")
  in
  for av = 0 to 15 do
    for bv = 0 to 15 do
      let add, _ = run 0 av bv false in
      check Alcotest.int "add" ((av + bv) land 15) add;
      let sub, _ = run 1 av bv false in
      check Alcotest.int "sub" ((av - bv) land 15) sub;
      let anded, z = run 2 av bv false in
      check Alcotest.int "and" (av land bv) anded;
      check Alcotest.bool "zero flag" (av land bv = 0) z;
      let ored, _ = run 3 av bv false in
      check Alcotest.int "or" (av lor bv) ored;
      let xored, _ = run 4 av bv false in
      check Alcotest.int "xor" (av lxor bv) xored
    done
  done

let test_sec_corrects_single_errors () =
  (* c499ish: flipping any single data bit must be corrected. *)
  let c = Generators.c499ish () in
  let rng = Rt_util.Rng.create 31 in
  for _ = 1 to 20 do
    let data = Array.init 32 (fun _ -> Rt_util.Rng.bool rng) in
    (* Check bits that zero the syndrome: check_k = parity of the data
       bits whose signature has bit k set (the generator's code). *)
    let syndrome_of input =
      let sig_of i = ((i * 7) mod 255) + 1 in
      Array.init 8 (fun k ->
          let p = ref false in
          Array.iteri (fun i d -> if d && (sig_of i lsr k) land 1 = 1 then p := not !p) input;
          !p)
    in
    let check_bits = syndrome_of data in
    let good = Netlist.eval_outputs c (Array.append data check_bits) in
    Array.iteri
      (fun k o ->
        let name = Netlist.name c o in
        if name.[0] = 'o' then begin
          let idx = int_of_string (String.sub name 1 (String.length name - 1)) in
          if good.(k) <> data.(idx) then Alcotest.fail "clean word not echoed"
        end)
      (Netlist.outputs c);
    (* now flip one data bit: the output must still equal the original data *)
    let flip = Rt_util.Rng.int rng 32 in
    let corrupted = Array.copy data in
    corrupted.(flip) <- not corrupted.(flip);
    let fixed = Netlist.eval_outputs c (Array.append corrupted check_bits) in
    Array.iteri
      (fun k o ->
        let name = Netlist.name c o in
        if name.[0] = 'o' then begin
          let idx = int_of_string (String.sub name 1 (String.length name - 1)) in
          if fixed.(k) <> data.(idx) then Alcotest.failf "bit %d not corrected" idx
        end)
      (Netlist.outputs c)
  done

let test_c1355_matches_c499 () =
  (* Same function, different gate realisation. *)
  let a = Generators.c499ish () in
  let b = Generators.c1355ish () in
  let rng = Rt_util.Rng.create 77 in
  for _ = 1 to 100 do
    let inp = Array.init 40 (fun _ -> Rt_util.Rng.bool rng) in
    if Netlist.eval_outputs a inp <> Netlist.eval_outputs b inp then
      Alcotest.fail "c1355ish differs from c499ish"
  done

let test_paper_suite_wellformed () =
  List.iter
    (fun (name, gen) ->
      let c = gen () in
      if Array.length (Netlist.inputs c) = 0 then Alcotest.failf "%s has no inputs" name;
      if Array.length (Netlist.outputs c) = 0 then Alcotest.failf "%s has no outputs" name;
      (* Every input reaches an output (no undetectable input faults by
         construction). *)
      Array.iter
        (fun i ->
          let reached = transitive_fanout c i in
          if not (Array.exists (fun o -> reached.(o)) (Netlist.outputs c)) then
            Alcotest.failf "%s: input %s reaches no output" name (Netlist.name c i))
        (Netlist.inputs c))
    Generators.paper_suite

let test_registry () =
  check Alcotest.bool "s1 known" true (Generators.by_name "s1" <> None);
  check Alcotest.bool "antagonist known" true (Generators.by_name "antagonist" <> None);
  check Alcotest.bool "wide_and-8 known" true (Generators.by_name "wide_and-8" <> None);
  check Alcotest.bool "nonsense unknown" true (Generators.by_name "frobnicate" = None)

let random_circuit_qcheck =
  QCheck.Test.make ~name:"random circuits are valid and deterministic" ~count:50
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c1 = Generators.random_circuit ~inputs:6 ~gates:30 ~seed in
      let c2 = Generators.random_circuit ~inputs:6 ~gates:30 ~seed in
      Netlist.size c1 = Netlist.size c2
      && Array.length (Netlist.outputs c1) > 0
      &&
      let inp = Array.make 6 true in
      Netlist.eval_outputs c1 inp = Netlist.eval_outputs c2 inp)

let () =
  let q = QCheck_alcotest.to_alcotest ~long:false in
  Alcotest.run "rt_circuit"
    [ ( "gate",
        [ Alcotest.test_case "prob matches enumeration" `Quick test_gate_prob_matches_enumeration;
          Alcotest.test_case "of_string" `Quick test_gate_of_string;
          Alcotest.test_case "controlling values" `Quick test_controlling_values ] );
      ( "netlist",
        [ Alcotest.test_case "rejects cycles" `Quick test_netlist_rejects_cycles;
          Alcotest.test_case "rejects duplicate names" `Quick test_netlist_rejects_duplicate_names ] );
      ( "builder",
        [ Alcotest.test_case "basic" `Quick test_builder_basic;
          Alcotest.test_case "constant folding" `Quick test_builder_constant_folding;
          Alcotest.test_case "pruning" `Quick test_builder_prune;
          q fold_equivalence_qcheck ] );
      ( "bench-format",
        [ Alcotest.test_case "roundtrip semantics" `Quick test_bench_roundtrip_semantics;
          Alcotest.test_case "parse errors" `Quick test_bench_parse_errors;
          Alcotest.test_case "error lines" `Quick test_bench_error_lines;
          Alcotest.test_case "out of order decls" `Quick test_bench_out_of_order;
          Alcotest.test_case "comments and blanks" `Quick test_bench_comments_and_blanks ] );
      ( "cone",
        [ Alcotest.test_case "support" `Quick test_cone_support;
          Alcotest.test_case "transitive fanout" `Quick test_transitive_fanout;
          Alcotest.test_case "fanout-free region roots" `Quick test_ffr_roots ] );
      ( "generators",
        [ Alcotest.test_case "multiplier exhaustive 4x4" `Quick test_multiplier_exhaustive;
          Alcotest.test_case "divider exhaustive 4-bit" `Quick test_divider_exhaustive;
          q comparator_qcheck;
          q adder_qcheck;
          Alcotest.test_case "alu operations" `Quick test_alu_operations;
          Alcotest.test_case "sec corrects single errors" `Quick test_sec_corrects_single_errors;
          Alcotest.test_case "c1355 matches c499" `Quick test_c1355_matches_c499;
          Alcotest.test_case "paper suite wellformed" `Quick test_paper_suite_wellformed;
          Alcotest.test_case "registry" `Quick test_registry;
          q random_circuit_qcheck ] ) ]
