(* Tests for Rt_bdd: canonical ROBDD operations, exact signal probability
   (Parker-McCluskey), fault detection functions, and the node limit. *)

module Bdd = Rt_bdd.Bdd
module Netlist = Rt_circuit.Netlist
module Generators = Rt_circuit.Generators

let check = Alcotest.check

let bits_of_int w v = Array.init w (fun i -> (v lsr i) land 1 = 1)

let test_terminal_identities () =
  let m = Bdd.manager ~nvars:4 () in
  let x = Bdd.var m 0 and y = Bdd.var m 1 in
  check Alcotest.bool "x & 1 = x" true (Bdd.equal (Bdd.and_ m x (Bdd.one m)) x);
  check Alcotest.bool "x & 0 = 0" true (Bdd.is_zero (Bdd.and_ m x (Bdd.zero m)));
  check Alcotest.bool "x | 0 = x" true (Bdd.equal (Bdd.or_ m x (Bdd.zero m)) x);
  check Alcotest.bool "x ^ x = 0" true (Bdd.is_zero (Bdd.xor_ m x x));
  check Alcotest.bool "x ^ ~x = 1" true (Bdd.is_one (Bdd.xor_ m x (Bdd.not_ m x)));
  check Alcotest.bool "~~x = x" true (Bdd.equal (Bdd.not_ m (Bdd.not_ m x)) x);
  check Alcotest.bool "x & y = y & x" true (Bdd.equal (Bdd.and_ m x y) (Bdd.and_ m y x))

let test_canonicity () =
  (* Two syntactically different constructions of the same function share
     one node. *)
  let m = Bdd.manager ~nvars:3 () in
  let x = Bdd.var m 0 and y = Bdd.var m 1 in
  let f1 = Bdd.not_ m (Bdd.and_ m x y) in
  let f2 = Bdd.or_ m (Bdd.not_ m x) (Bdd.not_ m y) in
  check Alcotest.bool "de morgan canonical" true (Bdd.equal f1 f2)

(* If-then-else composed from the connectives. *)
let ite m c t e = Bdd.or_ m (Bdd.and_ m c t) (Bdd.and_ m (Bdd.not_ m c) e)

let test_ite () =
  let m = Bdd.manager ~nvars:3 () in
  let c = Bdd.var m 0 and t = Bdd.var m 1 and e = Bdd.var m 2 in
  let f = ite m c t e in
  List.iter
    (fun v ->
      let assign i = (v lsr i) land 1 = 1 in
      let expect = if assign 0 then assign 1 else assign 2 in
      if Bdd.eval m f assign <> expect then Alcotest.failf "ite wrong at %d" v)
    (List.init 8 Fun.id)

(* The store holds the two terminals and [node_limit - 2] internal nodes:
   the allocation that would reach [node_limit] raises, and none before it
   does, also across the store's doubling (1025).  A node packs its child
   ids into 23 bits and its variable into 16, whose top value is the
   terminals': a larger limit is refused, and a 65 536th variable
   overflows like any other limit. *)
let test_node_limit () =
  let m = Bdd.manager ~node_limit:8 ~nvars:16 () in
  Alcotest.check_raises "limit" Bdd.Limit_exceeded (fun () ->
      let acc = ref (Bdd.one m) in
      for i = 0 to 15 do
        acc := Bdd.and_ m !acc (Bdd.var m i)
      done);
  List.iter
    (fun limit ->
      let m = Bdd.manager ~node_limit:limit ~nvars:limit () in
      let x0 = Bdd.var m 0 in
      for i = 1 to limit - 3 do
        ignore (Bdd.var m i)
      done;
      check Alcotest.int "store full" (limit - 2) (Bdd.node_count m);
      Alcotest.check_raises "one more" Bdd.Limit_exceeded (fun () -> ignore (Bdd.var m (limit - 2)));
      check Alcotest.int "nothing allocated past it" (limit - 2) (Bdd.node_count m);
      check Alcotest.bool "a full store still finds its nodes" true (Bdd.equal x0 (Bdd.var m 0)))
    [ 8; 1025; 3000 ];
  Alcotest.check_raises "limit above 2^23" (Invalid_argument "Bdd.manager: node_limit above 2^23")
    (fun () -> ignore (Bdd.manager ~node_limit:(Bdd.max_node_limit + 1) ~nvars:1 ()));
  ignore (Bdd.manager ~node_limit:Bdd.max_node_limit ~nvars:1 ());
  Alcotest.check_raises "65 536 variables" Bdd.Limit_exceeded (fun () ->
      ignore (Bdd.manager ~nvars:65_536 ()));
  let m = Bdd.manager ~nvars:65_535 () in
  let top = Bdd.var m 65_534 in
  let f = Bdd.and_ m (Bdd.var m 0) (Bdd.not_ m top) in
  check Alcotest.bool "eval on the last variable" true (Bdd.eval m f (fun v -> v = 0));
  check Alcotest.bool "eval with it set" false (Bdd.eval m f (fun _ -> true));
  check (Alcotest.float 0.0) "prob" 0.125
    (Bdd.prob m f (fun v -> if v = 65_534 then 0.75 else 0.5));
  match Bdd.prob_pair_many m [| f |] ~var:65_534 (fun _ -> 0.5) with
  | [| (p0, p1) |] ->
    check (Alcotest.float 0.0) "cofactor 0" 0.5 p0;
    check (Alcotest.float 0.0) "cofactor 1" 0.0 p1
  | _ -> Alcotest.fail "one pair per root"

let test_sat_fraction_parity () =
  (* Parity of n variables is satisfied by exactly half the assignments. *)
  let m = Bdd.manager ~nvars:8 () in
  let f = ref (Bdd.zero m) in
  for i = 0 to 7 do
    f := Bdd.xor_ m !f (Bdd.var m i)
  done;
  (* The satisfying fraction is the probability at the uniform distribution. *)
  check (Alcotest.float 1e-12) "parity fraction" 0.5 (Bdd.prob m !f (fun _ -> 0.5))

(* OR of x_i & x_(i+k) under the order x_0 .. x_(2k-1) needs about 2^(k+1)
   nodes: with k = 12 the store and the unique table grow (and rehash)
   several times past their initial 1024 nodes.  Rebuilding it must then
   find every node in the table. *)
let test_growth_and_rebuild () =
  let k = 12 in
  let m = Bdd.manager ~nvars:(2 * k) () in
  let build () =
    let f = ref (Bdd.zero m) in
    for i = 0 to k - 1 do
      f := Bdd.or_ m !f (Bdd.and_ m (Bdd.var m i) (Bdd.var m (i + k)))
    done;
    !f
  in
  let f = build () in
  let nodes = Bdd.node_count m in
  check Alcotest.bool "more than 4096 nodes" true (nodes > 4096);
  check (Alcotest.float 1e-12) "sat fraction" (1.0 -. (0.75 ** Float.of_int k)) (Bdd.prob m f (fun _ -> 0.5));
  let f' = build () in
  check Alcotest.int "rebuild allocates no node" nodes (Bdd.node_count m);
  check Alcotest.bool "rebuild returns the same root" true (Bdd.equal f f')

(* The tables' initial size only decides when they grow: the same
   operations make the same nodes in a manager that starts at 1024 and
   doubles at least four times as in one that never grows. *)
let test_capacity_keeps_nodes () =
  let k = 13 in
  let build capacity =
    let m = Bdd.manager ~capacity ~nvars:(2 * k) () in
    let f = ref (Bdd.zero m) in
    let ids =
      List.init k (fun i ->
          f := Bdd.or_ m !f (Bdd.and_ m (Bdd.var m i) (Bdd.var m (i + k)));
          !f)
    in
    (ids, Bdd.node_count m, Bdd.prob m !f (fun v -> 0.1 +. (0.03 *. Float.of_int v)))
  in
  let ids_small, n_small, p_small = build 1024 and ids_big, n_big, p_big = build (1 lsl 16) in
  check Alcotest.bool "four doublings" true (n_small + 2 > 8 * 1024);
  check Alcotest.bool "node ids" true (List.equal Bdd.equal ids_small ids_big);
  check Alcotest.int "node count" n_small n_big;
  check Alcotest.bool "probability bit for bit" true
    (Int64.bits_of_float p_small = Int64.bits_of_float p_big)

(* Probability queries memoise in scratch kept by the manager.  Interleave
   them with node allocation (so the scratch is outgrown), with changing
   input probabilities and with cofactor-pair queries, and check each answer
   bit for bit against a manager that answers one query only.  Then query
   [g], whose nodes no other query visits, after every gap of 0 .. 299
   other queries: a memo left from its previous visit must never be read. *)
let test_queries_reuse_scratch () =
  let k = 8 in
  let nvars = (2 * k) + 2 in
  let build m upto =
    let f = ref (Bdd.zero m) in
    for i = 0 to upto do
      f := Bdd.or_ m !f (Bdd.and_ m (Bdd.var m i) (Bdd.var m (i + k)))
    done;
    !f
  in
  let g m = Bdd.and_ m (Bdd.var m (2 * k)) (Bdd.var m ((2 * k) + 1)) in
  let fresh root q =
    let m = Bdd.manager ~nvars () in
    Bdd.prob m (root m) q
  in
  let once upto = fresh (fun m -> build m upto) in
  let same what a b =
    if Int64.bits_of_float a <> Int64.bits_of_float b then Alcotest.failf "%s: %h <> %h" what a b
  in
  let m = Bdd.manager ~nvars () in
  for i = 0 to k - 1 do
    let roots = Array.init (i + 1) (build m) in
    let p v = 0.1 +. (0.05 *. Float.of_int ((v + i) mod 16)) in
    let at var b v = if v = var then b else p v in
    let all = Bdd.prob_many m roots p in
    let pairs = Bdd.prob_pair_many m roots ~var:(i + k) p in
    Array.iteri
      (fun j r ->
        same "prob_many" (once j p) all.(j);
        same "prob" (once j p) (Bdd.prob m r p);
        same "cofactor 0" (once j (at (i + k) 0.0)) (fst pairs.(j));
        same "cofactor 1" (once j (at (i + k) 1.0)) (snd pairs.(j)))
      roots
  done;
  let f = build m (k - 1) and gm = g m in
  for gap = 0 to 299 do
    for _ = 1 to gap do
      ignore (Bdd.prob m f (fun _ -> 0.5))
    done;
    let q v = 0.3 +. (0.001 *. Float.of_int (gap + v)) in
    same "after a gap" (fresh g q) (Bdd.prob m gm q)
  done

(* Random circuit: BDD evaluation must equal direct netlist evaluation, and
   BDD probability must equal exhaustive enumeration. *)
let bdd_vs_netlist_qcheck =
  QCheck.Test.make ~name:"bdd build agrees with netlist eval" ~count:40
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c = Generators.random_circuit ~inputs:7 ~gates:40 ~seed in
      match Bdd_ref.build c with
      | None -> QCheck.assume_fail ()
      | Some (m, bdds, order) ->
        let ok = ref true in
        for v = 0 to 127 do
          let inp = bits_of_int 7 v in
          let vals = Netlist.eval c inp in
          (* BDD variable = order.(input position) *)
          let assign var =
            let rec find i = if order.(i) = var then inp.(i) else find (i + 1) in
            find 0
          in
          for n = 0 to Netlist.size c - 1 do
            if Bdd.eval m bdds.(n) assign <> vals.(n) then ok := false
          done
        done;
        !ok)

let prob_vs_enumeration_qcheck =
  QCheck.Test.make ~name:"exact signal probs equal enumeration" ~count:25
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c = Generators.random_circuit ~inputs:6 ~gates:30 ~seed in
      let x = Array.init 6 (fun i -> 0.1 +. (0.13 *. Float.of_int i)) in
      match Bdd_ref.signal_probs c x with
      | None -> QCheck.assume_fail ()
      | Some probs ->
        (* enumerate *)
        let n = Netlist.size c in
        let acc = Array.make n 0.0 in
        for v = 0 to 63 do
          let inp = bits_of_int 6 v in
          let weight =
            Array.to_list (Array.mapi (fun i b -> if b then x.(i) else 1.0 -. x.(i)) inp)
            |> List.fold_left ( *. ) 1.0
          in
          let vals = Netlist.eval c inp in
          Array.iteri (fun j b -> if b then acc.(j) <- acc.(j) +. weight) vals
        done;
        Array.for_all2 (fun a b -> Float.abs (a -. b) < 1e-9) acc probs)

let detection_prob_vs_bruteforce_qcheck =
  QCheck.Test.make ~name:"detection prob equals brute-force fraction" ~count:15
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c = Generators.random_circuit ~inputs:6 ~gates:25 ~seed in
      let faults = Rt_fault.Collapse.collapsed_universe c in
      let o =
        Rt_testability.Detect.make (Rt_testability.Detect.Bdd_exact { node_limit = 500_000 }) c
          faults
      in
      let exact = Rt_testability.Oracle.exact_mask o in
      let pf = Rt_testability.Oracle.probs o (Array.make 6 0.5) in
      let ok = ref true in
      Array.iteri
        (fun fi f ->
          if exact.(fi) then begin
            let count = ref 0 in
            for v = 0 to 63 do
              if Rt_sim.Fault_sim.detects c f (bits_of_int 6 v) then incr count
            done;
            let brute = Float.of_int !count /. 64.0 in
            if Float.abs (pf.(fi) -. brute) > 1e-9 then ok := false
          end)
        faults;
      !ok)

let test_dfs_order_comparator () =
  (* The declaration order (all a's then all b's) blows comparators up
     exponentially; the DFS order must keep S1 comfortably under the
     limit. *)
  let c = Generators.s1_comparator () in
  match Bdd_ref.build ~node_limit:200_000 c with
  | None -> Alcotest.fail "s1 did not fit with DFS order"
  | Some (m, _, _) ->
    check Alcotest.bool "small" true (Bdd.node_count m < 100_000)

let test_detection_function_redundant () =
  (* A constant-0-fed AND behind folding-off construction: stuck-at-0 on
     its output is undetectable. *)
  let b = Rt_circuit.Builder.create ~fold:false ~prune:false () in
  let x = Rt_circuit.Builder.input b "x" in
  let nx = Rt_circuit.Builder.not_ b x in
  let zero = Rt_circuit.Builder.and2 b x nx in
  (* always 0 *)
  Rt_circuit.Builder.output b ~name:"y" (Rt_circuit.Builder.or2 b zero x);
  let c = Rt_circuit.Builder.finalize b in
  (match Netlist.find c (Netlist.name c zero) with
   | None -> Alcotest.fail "node lost"
   | Some node ->
     let stuck0 = { Rt_fault.Fault.site = Rt_fault.Fault.Stem node; stuck = false } in
     let o =
       Rt_testability.Detect.make (Rt_testability.Detect.Bdd_exact { node_limit = 100_000 }) c
         [| stuck0 |]
     in
     check Alcotest.bool "tiny circuit must fit" true (Rt_testability.Oracle.exact_mask o).(0);
     check Alcotest.bool "s-a-0 on constant-0 node is redundant" true
       (Rt_testability.Oracle.proven_redundant o).(0))

let () =
  let q = QCheck_alcotest.to_alcotest ~long:false in
  Alcotest.run "rt_bdd"
    [ ( "core",
        [ Alcotest.test_case "terminal identities" `Quick test_terminal_identities;
          Alcotest.test_case "canonicity" `Quick test_canonicity;
          Alcotest.test_case "ite" `Quick test_ite;
          Alcotest.test_case "node limit" `Quick test_node_limit;
          Alcotest.test_case "sat fraction parity" `Quick test_sat_fraction_parity;
          Alcotest.test_case "growth and rebuild" `Quick test_growth_and_rebuild;
          Alcotest.test_case "capacity keeps nodes" `Quick test_capacity_keeps_nodes;
          Alcotest.test_case "queries reuse scratch" `Quick test_queries_reuse_scratch ] );
      ( "circuit",
        [ q bdd_vs_netlist_qcheck;
          q prob_vs_enumeration_qcheck;
          q detection_prob_vs_bruteforce_qcheck;
          Alcotest.test_case "dfs order tames comparator" `Quick test_dfs_order_comparator;
          Alcotest.test_case "redundant fault detection function" `Quick
            test_detection_function_redundant ] ) ]
