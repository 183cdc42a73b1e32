(* Tests for the core optimizer: the objective and its derivatives,
   NORMALIZE's bounds, MINIMIZE's convex search, the OPTIMIZE loop and the
   section-5.3 partitioning. *)

module Objective = Rt_optprob.Objective
module Normalize = Rt_optprob.Normalize
module Minimize = Rt_optprob.Minimize
module Optimize = Rt_optprob.Optimize
module Partition = Rt_optprob.Partition
module Detect = Rt_testability.Detect
module Generators = Rt_circuit.Generators

let check = Alcotest.check

(* --- Objective ---------------------------------------------------------------- *)

let test_objective_value () =
  (* J_N = sum exp(-N p). *)
  let j = Objective.single.value ~n:10.0 [| 0.1; 0.2 |] in
  let expect = Float.exp (-1.0) +. Float.exp (-2.0) in
  check (Alcotest.float 1e-12) "value" expect j

let test_objective_confidence_consistency () =
  (* exp(-J) approximates eq (1) well once every escape probability
     (1-p)^N is small — the regime NORMALIZE targets. *)
  let pfs = [| 0.001; 0.003 |] in
  let n = 5000.0 in
  let approx = Objective.single.confidence ~n pfs in
  let exact = Rt_util.Prob.detection_confidence ~n pfs in
  if Float.abs (approx -. exact) > 0.01 then
    Alcotest.failf "approx %.4f vs exact %.4f" approx exact

let derivatives_qcheck =
  QCheck.Test.make ~name:"analytic derivatives match finite differences" ~count:200
    QCheck.(
      triple
        (list_of_size Gen.(1 -- 8) (pair (float_range 0.0 0.5) (float_range 0.0 0.5)))
        (float_range 10.0 1000.0) (float_range 0.1 0.9))
    (fun (pairs, n, y) ->
      QCheck.assume (pairs <> []);
      let p0 = Array.of_list (List.map fst pairs) in
      let p1 = Array.of_list (List.map snd pairs) in
      let h = 1e-5 in
      let j y = Objective.single.value_along ~n ~p0 ~p1 y in
      let d1, d2 = Objective.single.derivatives_along ~n ~p0 ~p1 y in
      let fd1 = (j (y +. h) -. j (y -. h)) /. (2.0 *. h) in
      let fd2 = (j (y +. h) +. j (y -. h) -. (2.0 *. j y)) /. (h *. h) in
      let close a b scale = Float.abs (a -. b) <= (1e-3 *. scale) +. 1e-6 in
      close d1 fd1 (1.0 +. Float.abs d1) && close d2 fd2 (1.0 +. Float.abs d2) && d2 >= 0.0)

(* [Objective.single.derivatives_along] before it skipped terms: one
   [exp] per fault, every term added in fault order.  Kept as the
   reference the skipping loop must reproduce bit for bit. *)
let derivatives_reference ~n ~p0 ~p1 y =
  let d1 = ref 0.0 and d2 = ref 0.0 in
  for f = 0 to Array.length p0 - 1 do
    let b = p1.(f) -. p0.(f) in
    let p = p0.(f) +. (y *. b) in
    let e = Float.exp (-.n *. p) in
    d1 := !d1 -. (n *. b *. e);
    d2 := !d2 +. (n *. b *. n *. b *. e)
  done;
  (!d1, !d2)

(* Faults whose exponent -N p(y) sits near the two skip thresholds (-60,
   and -745.13 where exp reaches +0), spread over [-800, 0], or near 0 —
   a dominant term, placed last, first or both — with slopes of both
   signs, N up to 1e20, and now and then a NaN or an infinity in p0, p1,
   N or y. *)
let derivatives_matches_reference_qcheck =
  QCheck.Test.make ~name:"single derivatives equal the every-term reference bit for bit"
    ~count:400 (QCheck.int_range 0 1_000_000)
    (fun seed ->
      let rng = Rt_util.Rng.create seed in
      let u () = Rt_util.Rng.float rng in
      let pick l = List.nth l (Rt_util.Rng.int rng (List.length l)) in
      let special () = pick [ Float.nan; Float.infinity; Float.neg_infinity; 0.0 ] in
      let n =
        if Rt_util.Rng.int rng 20 = 0 then pick [ Float.infinity; Float.nan; 1e20; 1.0 ]
        else 10.0 ** (20.0 *. u ())
      in
      let y = if Rt_util.Rng.int rng 20 = 0 then pick [ 0.0; 1.0; Float.nan ] else u () in
      let specials = Rt_util.Rng.int rng 5 = 0 in
      let fault arg =
        let p = -.arg /. n in
        let b = (if u () < 0.5 then -.p else p) *. (10.0 ** (-6.0 *. u ())) in
        let p0 = p -. (y *. b) in
        match if specials then Rt_util.Rng.int rng 60 else 2 with
        | 0 -> (special (), p0 +. b)
        | 1 -> (p0, special ())
        | _ -> (p0, p0 +. b)
      in
      (* One cluster for every fault, or a fresh pick per fault. *)
      let cluster = Rt_util.Rng.int rng 5 in
      let arg () =
        match if cluster < 4 then cluster else Rt_util.Rng.int rng 4 with
        | 0 -> -60.0 +. (4.0 *. u ()) -. 2.0
        | 1 -> -745.13 +. (4.0 *. u ()) -. 2.0
        | 2 -> -800.0 *. u ()
        | _ -> -3.0 *. u ()
      in
      let dominant () = fault (-0.1 *. u ()) in
      let body = List.init (Rt_util.Rng.int rng 300) (fun _ -> fault (arg ())) in
      let faults =
        match Rt_util.Rng.int rng 4 with
        | 0 -> body @ [ dominant () ]
        | 1 -> dominant () :: body
        | 2 -> (dominant () :: body) @ [ dominant () ]
        | _ -> body
      in
      let p0 = Array.of_list (List.map fst faults) and p1 = Array.of_list (List.map snd faults) in
      let d1, d2 = Objective.single.derivatives_along ~n ~p0 ~p1 y in
      let r1, r2 = derivatives_reference ~n ~p0 ~p1 y in
      Int64.bits_of_float d1 = Int64.bits_of_float r1
      && Int64.bits_of_float d2 = Int64.bits_of_float r2)

(* --- Objective protocol: n-detection ------------------------------------------- *)

let test_poisson_tail_identities () =
  (* F_1(l) = e^-l; F_k(0) = 1; F_{k+1} - F_k = e^-l l^k / k!. *)
  let f k l = let v, _, _ = Objective.poisson_tail ~k l in v in
  List.iter
    (fun l ->
      check (Alcotest.float 1e-12) "F_1 = exp(-l)" (Float.exp (-.l)) (f 1 l);
      let rec fact n = if n <= 1 then 1.0 else Float.of_int n *. fact (n - 1) in
      List.iter
        (fun k ->
          check (Alcotest.float 1e-12) "F_k(0) = 1" 1.0 (f k 0.0);
          let step = Float.exp (-.l) *. Float.pow l (Float.of_int k) /. fact k in
          check (Alcotest.float 1e-12) "tail recurrence" step (f (k + 1) l -. f k l))
        [ 1; 2; 3; 5 ])
    [ 0.3; 1.0; 4.0; 9.5 ]

let test_ndetect_one_matches_single () =
  (* k = 1 collapses to the paper's objective.  Only analytically equal:
     the k-detect derivative code associates products differently, so
     compare with a tolerance, not for bit identity. *)
  let nd1 = Objective.n_detect ~k:1 in
  let s = Objective.single in
  let p0 = [| 0.01; 0.2; 0.0; 0.35 |] and p1 = [| 0.15; 0.05; 0.4; 0.3 |] in
  let n = 123.0 in
  List.iter
    (fun y ->
      let rel = Alcotest.float 1e-9 in
      check rel "value_along" (s.Objective.value_along ~n ~p0 ~p1 y)
        (nd1.Objective.value_along ~n ~p0 ~p1 y);
      let d1s, d2s = s.Objective.derivatives_along ~n ~p0 ~p1 y in
      let d1k, d2k = nd1.Objective.derivatives_along ~n ~p0 ~p1 y in
      check rel "d1" d1s d1k;
      check rel "d2" d2s d2k)
    [ 0.1; 0.5; 0.9 ];
  check (Alcotest.float 1e-9) "value" (s.Objective.value ~n p0) (nd1.Objective.value ~n p0);
  check (Alcotest.float 1e-9) "confidence" (s.Objective.confidence ~n p0)
    (nd1.Objective.confidence ~n p0)

let poisson_tail_convex_qcheck =
  QCheck.Test.make ~name:"poisson tail F_k'' >= 0 for lambda >= k-1 (the contract)"
    ~count:300
    QCheck.(pair (int_range 1 6) (float_range 0.0 50.0))
    (fun (k, excess) ->
      (* Sample lambda inside the documented convexity regime only. *)
      let lambda = Float.of_int (k - 1) +. excess in
      let _, _, d2 = Objective.poisson_tail ~k lambda in
      d2 >= -1e-12)

let ndetect_derivatives_qcheck =
  (* Same finite-difference cross-check as the single objective, restricted
     to the convex regime (n * min p >= k - 1 along the whole coordinate
     path) where J'' >= 0 is also part of the contract. *)
  QCheck.Test.make ~name:"n-detect derivatives match finite differences, J'' >= 0"
    ~count:200
    QCheck.(
      quad (int_range 2 4)
        (list_of_size Gen.(1 -- 8) (pair (float_range 0.05 0.4) (float_range 0.05 0.4)))
        (float_range 100.0 1000.0) (float_range 0.1 0.9))
    (fun (k, pairs, n, y) ->
      QCheck.assume (pairs <> []);
      let obj = Objective.n_detect ~k in
      let p0 = Array.of_list (List.map fst pairs) in
      let p1 = Array.of_list (List.map snd pairs) in
      (* n * 0.05 >= 5 > k-1 for k <= 4: in regime for every y. *)
      let h = 1e-5 in
      let j y = obj.Objective.value_along ~n ~p0 ~p1 y in
      let d1, d2 = obj.Objective.derivatives_along ~n ~p0 ~p1 y in
      let fd1 = (j (y +. h) -. j (y -. h)) /. (2.0 *. h) in
      let fd2 = (j (y +. h) +. j (y -. h) -. (2.0 *. j y)) /. (h *. h) in
      let close a b scale = Float.abs (a -. b) <= (1e-3 *. scale) +. 1e-6 in
      close d1 fd1 (1.0 +. Float.abs d1) && close d2 fd2 (1.0 +. Float.abs d2)
      && d2 >= -1e-12)

(* --- Normalize ------------------------------------------------------------------ *)

let test_normalize_matches_direct () =
  (* NORMALIZE's interval-section N equals the direct eq-(1)-style search
     on the objective. *)
  let pfs = [| 0.001; 0.01; 0.05; 0.3; 0.3; 0.4 |] in
  let norm = Normalize.run ~confidence:0.95 pfs in
  let q = -.Float.log 0.95 in
  let j n = Objective.single.value ~n pfs in
  check Alcotest.bool "J(N) <= Q" true (j norm.Normalize.n <= q +. 1e-9);
  check Alcotest.bool "J(N-2) > Q" true (j (norm.Normalize.n -. 2.0) > q)

let test_normalize_excludes_zeros () =
  let pfs = [| 0.0; 0.5; 0.0; 0.1 |] in
  let norm = Normalize.run pfs in
  check Alcotest.(array int) "undetectable" [| 0; 2 |] norm.Normalize.undetectable;
  check Alcotest.bool "finite over the rest" true (Float.is_finite norm.Normalize.n)

let test_normalize_all_zero () =
  let norm = Normalize.run [| 0.0; 0.0 |] in
  check Alcotest.bool "infinite" false (Float.is_finite norm.Normalize.n)

let test_normalize_hard_prefix () =
  (* The nf-prefix contains the smallest probabilities. *)
  let pfs = [| 0.5; 1e-6; 0.4; 2e-6; 0.3 |] in
  let norm = Normalize.run ~nf_min:2 pfs in
  let hard = Normalize.hard_indices norm in
  check Alcotest.bool "hardest first" true (hard.(0) = 1 && hard.(1) = 3)

(* A detection probability far below 1e-15 still has a finite test
   length, about 3e18 for 1e-18 at 95%: neither search may give up on a
   representable N.  Eq. (1) gives ln 0.05 / ln (1 - p); NORMALIZE's
   J_N = e^(-N p) <= -ln 0.95 gives -ln (-ln 0.95) / p. *)
let test_tiny_pf_finite_n () =
  let pfs = [| 1e-18; 0.5; 1e-3 |] in
  let tl = Rt_testability.Test_length.required ~confidence:0.95 pfs in
  let nn = (Normalize.run ~confidence:0.95 pfs).Normalize.n in
  List.iter
    (fun (name, n, expect) ->
      if not (Float.is_finite n && Float.abs (n -. expect) <= 1e-6 *. expect) then
        Alcotest.failf "%s: N = %g, expected about %g" name n expect)
    [ ("Test_length.required", tl, Float.log 0.05 /. Float.log1p (-1e-18));
      ("Normalize.run", nn, -.Float.log (-.Float.log 0.95) /. 1e-18) ]

let normalize_sorted_qcheck =
  QCheck.Test.make ~name:"normalize sorted_idx ascending in probability" ~count:200
    QCheck.(list_of_size Gen.(1 -- 30) (float_range 1e-6 1.0))
    (fun ps ->
      let pfs = Array.of_list ps in
      let norm = Normalize.run pfs in
      let sorted = norm.Normalize.sorted_idx in
      let ok = ref true in
      for i = 0 to Array.length sorted - 2 do
        if pfs.(sorted.(i)) > pfs.(sorted.(i + 1)) then ok := false
      done;
      !ok)

(* The list-based NORMALIZE kept as the reference: full prefix sums,
   computed twice per step, and a list filter/sort.  [Normalize.run] must
   make the same decisions from its early-stopping sums and array sort. *)
let normalize_reference ~objective ~confidence ~nf_min pfs =
  let all = Array.init (Array.length pfs) Fun.id in
  let undetectable = Array.of_list (List.filter (fun i -> pfs.(i) <= 0.0) (Array.to_list all)) in
  let sorted_idx =
    Array.to_list all
    |> List.filter (fun i -> pfs.(i) > 0.0)
    |> List.sort (fun a b -> Float.compare pfs.(a) pfs.(b))
    |> Array.of_list
  in
  let n_det = Array.length sorted_idx in
  if n_det = 0 then (sorted_idx, undetectable, Float.infinity, 0)
  else begin
    let q = -.Float.log confidence in
    let p i = pfs.(sorted_idx.(i)) in
    let term = objective.Objective.term in
    let l z m =
      let acc = ref 0.0 in
      for i = 0 to z - 1 do acc := !acc +. term ~n:m ~p:(p i) done;
      !acc
    in
    let u z m =
      if z >= n_det then l z m else l z m +. (Float.of_int (n_det - z) *. term ~n:m ~p:(p z))
    in
    let decide m =
      let rec go z =
        if l z m > q then (false, z)
        else if u z m <= q then (true, z)
        else if z >= n_det then (true, z)
        else go (min n_det (2 * z))
      in
      go (min n_det (max 1 nf_min))
    in
    let rec grow m = if fst (decide m) || m = Float.infinity then m else grow (m *. 2.0) in
    let hi = grow 1.0 in
    if hi = Float.infinity || not (fst (decide hi)) then
      (sorted_idx, undetectable, Float.infinity, min n_det nf_min)
    else begin
      let rec bisect lo hi =
        if hi -. lo <= Float.max 0.5 (1e-9 *. hi) then hi
        else begin
          let mid = 0.5 *. (lo +. hi) in
          if fst (decide mid) then bisect lo mid else bisect mid hi
        end
      in
      let n = Float.round (bisect 0.0 hi +. 0.49) in
      let _, z = decide n in
      (sorted_idx, undetectable, n, max (min n_det nf_min) z)
    end
  end

let objectives = [ Objective.single; Objective.n_detect ~k:2; Objective.n_detect ~k:3 ]

let normalize_matches_reference_qcheck =
  (* Values drawn from a short list, so ties and zeros are common.  The
     long arrays (2 000 to 4 000 entries, the sort's merge path) draw
     from five values most of the time; their tiny values drive N so
     high that most terms are subnormal or +0, where the bound sums stop
     early. *)
  let value =
    QCheck.Gen.(
      frequency
        [ (1, return 0.0);
          (3, oneofl [ 1e-18; 1e-5; 1e-4; 1e-3; 0.01; 0.2 ]);
          (3, float_range 1e-6 0.5) ])
  in
  let long_value =
    QCheck.Gen.(
      frequency
        [ (6, oneofl [ 1e-3; 0.01; 0.05; 0.2; 0.5 ]);
          (1, map (fun e -> 10.0 ** -.e) (float_range 0.0 18.0));
          (1, oneofl [ 0.0; 1e-18; 3e-16 ]) ])
  in
  QCheck.Test.make ~name:"normalize equals the list-based reference" ~count:150
    (QCheck.make
       ~print:QCheck.Print.(array float)
       QCheck.Gen.(
         frequency
           [ (3, array_size (1 -- 400) value); (1, array_size (2000 -- 4000) long_value) ]))
    (fun pfs ->
      List.for_all
        (fun objective ->
          List.for_all
            (fun nf_min ->
              let r = Normalize.run ~objective ~confidence:0.95 ~nf_min pfs in
              let sorted_idx, undetectable, n, nf =
                normalize_reference ~objective ~confidence:0.95 ~nf_min pfs
              in
              r.Normalize.sorted_idx = sorted_idx
              && r.Normalize.undetectable = undetectable
              && Int64.bits_of_float r.Normalize.n = Int64.bits_of_float n
              && r.Normalize.nf = nf)
            [ 1; 8; 256 ])
        objectives)

(* --- Minimize ------------------------------------------------------------------- *)

let minimize_qcheck =
  QCheck.Test.make ~name:"newton finds the strictly convex minimum" ~count:150
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 6) (pair (float_range 0.0 0.3) (float_range 0.0 0.3)))
        (float_range 50.0 5000.0))
    (fun (pairs, n) ->
      QCheck.assume (pairs <> []);
      let p0 = Array.of_list (List.map fst pairs) in
      let p1 = Array.of_list (List.map snd pairs) in
      let r = Minimize.newton ~n ~p0 ~p1 0.5 in
      (* Compare with a fine grid scan. *)
      let best = ref Float.infinity and best_y = ref 0.5 in
      for k = 0 to 980 do
        let y = 0.01 +. (0.001 *. Float.of_int k) in
        let j = Objective.single.value_along ~n ~p0 ~p1 y in
        if j < !best then begin
          best := j;
          best_y := y
        end
      done;
      ignore !best_y;
      Objective.single.value_along ~n ~p0 ~p1 r.Minimize.y <= !best +. (1e-6 *. (1.0 +. !best)))

let test_minimize_boundary () =
  (* A fault that only wants y high: optimum at the hi boundary. *)
  let r = Minimize.newton ~lo:0.05 ~hi:0.95 ~n:100.0 ~p0:[| 0.0 |] ~p1:[| 0.5 |] 0.5 in
  check (Alcotest.float 1e-9) "pegged at hi" 0.95 r.Minimize.y

(* The upper boundary's derivative is read only when the lower one is
   negative: a coordinate pegged at [lo] costs one derivative call, one
   pegged at [hi] two. *)
let test_minimize_boundary_calls () =
  let calls = ref 0 in
  let objective =
    { Objective.single with
      Objective.derivatives_along =
        (fun ~n ~p0 ~p1 y ->
          incr calls;
          Objective.single.Objective.derivatives_along ~n ~p0 ~p1 y) }
  in
  let newton ~p0 ~p1 =
    calls := 0;
    let r = Minimize.newton ~objective ~lo:0.05 ~hi:0.95 ~n:100.0 ~p0 ~p1 0.5 in
    (r.Minimize.y, !calls)
  in
  let y, k = newton ~p0:[| 0.5 |] ~p1:[| 0.0 |] in
  check (Alcotest.float 0.0) "pegged at lo" 0.05 y;
  check Alcotest.int "one derivative call at lo" 1 k;
  let y, k = newton ~p0:[| 0.0 |] ~p1:[| 0.5 |] in
  check (Alcotest.float 0.0) "pegged at hi" 0.95 y;
  check Alcotest.int "two derivative calls at hi" 2 k

(* [Minimize.newton] before it dropped the p0 = p1 faults: the Newton
   steps ran the derivatives over every fault.  Kept as the reference the
   compacted search must reproduce bit for bit. *)
let newton_reference ~objective ~lo ~hi ~n ~p0 ~p1 y_start =
  let deriv y = objective.Objective.derivatives_along ~n ~p0 ~p1 y in
  let d_lo, _ = deriv lo and d_hi, _ = deriv hi in
  if d_lo >= 0.0 then (lo, 0)
  else if d_hi <= 0.0 then (hi, 0)
  else begin
    let a = ref lo and b = ref hi in
    let y = ref (Rt_util.Prob.clamp ~lo ~hi y_start) in
    let iters = ref 0 in
    let finished = ref false in
    while (not !finished) && !iters < 60 do
      incr iters;
      let d1, d2 = deriv !y in
      if d1 <= 0.0 then a := Float.max !a !y else b := Float.min !b !y;
      let step_ok = d2 > 0.0 in
      let candidate = if step_ok then !y -. (d1 /. d2) else Float.nan in
      let next =
        if step_ok && candidate > !a && candidate < !b then candidate else 0.5 *. (!a +. !b)
      in
      if Float.abs (next -. !y) < 1e-6 || !b -. !a < 1e-6 then finished := true;
      y := next
    done;
    (!y, !iters)
  end

let newton_matches_reference_qcheck =
  (* [share] is the fraction of faults with p1 = p0: about half, all or
     none of them. *)
  QCheck.Test.make ~name:"newton over moved faults equals the full-loop reference" ~count:200
    QCheck.(
      quad (int_range 0 10_000) (int_range 1 300) (oneofl [ 0.5; 1.0; 0.0 ])
        (float_range 50.0 5000.0))
    (fun (seed, nf, share, n) ->
      let rng = Rt_util.Rng.create seed in
      let p0 = Array.init nf (fun _ -> 0.3 *. Rt_util.Rng.float rng) in
      let p1 =
        Array.map
          (fun p -> if Rt_util.Rng.float rng < share then p else 0.3 *. Rt_util.Rng.float rng)
          p0
      in
      let y_start = 0.02 +. (0.96 *. Rt_util.Rng.float rng) in
      List.for_all
        (fun objective ->
          let r = Minimize.newton ~objective ~lo:0.02 ~hi:0.98 ~n ~p0 ~p1 y_start in
          let y, iters = newton_reference ~objective ~lo:0.02 ~hi:0.98 ~n ~p0 ~p1 y_start in
          Int64.bits_of_float r.Minimize.y = Int64.bits_of_float y
          && r.Minimize.iterations = iters)
        objectives)

let test_minimize_length_mismatch () =
  let expect = Invalid_argument "Minimize.newton: p0/p1 length mismatch" in
  Alcotest.check_raises "shorter p1" expect (fun () ->
      ignore (Minimize.newton ~n:100.0 ~p0:[| 0.1; 0.2 |] ~p1:[| 0.3 |] 0.5));
  Alcotest.check_raises "longer p1" expect (fun () ->
      ignore (Minimize.newton ~n:100.0 ~p0:[| 0.1 |] ~p1:[| 0.3; 0.2 |] 0.5))

(* --- Optimize / Partition ---------------------------------------------------------- *)

let test_optimize_improves_wide_and () =
  let c = Generators.wide_and 12 in
  let faults = Rt_fault.Collapse.collapsed_universe c in
  let oracle = Detect.make (Detect.Bdd_exact { node_limit = 100_000 }) c faults in
  let r = Optimize.run oracle in
  check Alcotest.bool "improves by > 100x" true (Optimize.improvement r > 100.0);
  let gain r = Format.asprintf "%a" Rt_pipeline.pp_gain r in
  check Alcotest.string "gain printed" (Printf.sprintf "x%.0f" (Optimize.improvement r)) (gain r);
  check Alcotest.string "no gain from an infinite N" "n/a"
    (gain { r with Optimize.n_initial = Float.infinity });
  (* Theory: optimal weight for an n-input AND is about n/(n+1) ~ 0.92. *)
  Array.iter
    (fun w -> if w < 0.75 then Alcotest.failf "weight %.2f too low for wide AND" w)
    r.Optimize.weights

let test_optimize_s1_order_of_magnitude () =
  let c = Generators.s1_comparator () in
  let faults = Rt_fault.Collapse.collapsed_universe c in
  let oracle = Detect.make (Detect.Bdd_exact { node_limit = 2_000_000 }) c faults in
  let r = Optimize.run oracle in
  (* Paper: 5.6e8 -> 3.5e4 (factor ~1.6e4).  Require at least 10^3. *)
  check Alcotest.bool "n_initial large" true (r.Optimize.n_initial > 1e7);
  check Alcotest.bool "n_final small" true (r.Optimize.n_final < 1e5);
  check Alcotest.bool "weights on 0.05 grid" true
    (Array.for_all
       (fun w ->
         let k = w /. 0.05 in
         Float.abs (k -. Float.round k) < 1e-9)
       r.Optimize.weights)

let test_optimize_respects_start () =
  let c = Generators.wide_and 8 in
  let faults = Rt_fault.Collapse.collapsed_universe c in
  let oracle = Detect.make Detect.Cop c faults in
  let options = { Optimize.default_options with Optimize.start = Some (Array.make 8 0.3) } in
  let r = Optimize.run ~options oracle in
  check Alcotest.bool "still improves from a bad start" true (Optimize.improvement r > 10.0)

let test_optimize_rejects_bad_start () =
  let c = Generators.wide_and 8 in
  let faults = Rt_fault.Collapse.collapsed_universe c in
  let oracle = Detect.make Detect.Cop c faults in
  let options = { Optimize.default_options with Optimize.start = Some [| 0.5 |] } in
  Alcotest.check_raises "width mismatch" (Invalid_argument "Optimize.run: start vector width")
    (fun () -> ignore (Optimize.run ~options oracle))

let test_optimize_uses_incremental_cofactors () =
  (* PREPARE goes through the oracle protocol's fused cofactor path: the
     incremental counter must account for every cofactor query of the
     run (2 sweeps x 8 inputs here) with zero generic fallbacks, and the
     commit path must keep the COP base point warm across the sweep. *)
  Rt_obs.set_enabled true;
  Rt_obs.clear ();
  Fun.protect
    ~finally:(fun () ->
      Rt_obs.set_enabled false;
      Rt_obs.clear ())
    (fun () ->
      let c = Generators.wide_and 8 in
      let faults = Rt_fault.Collapse.collapsed_universe c in
      let oracle = Detect.make Detect.Cop c faults in
      let incr_c = Rt_obs.counter "oracle.cofactor.incremental" in
      let full_c = Rt_obs.counter "oracle.cofactor.full" in
      let commits = Rt_obs.counter "cop.incremental.commits" in
      let options = { Optimize.default_options with Optimize.max_sweeps = 2 } in
      let r = Optimize.run ~options oracle in
      check Alcotest.bool "optimizer still improves" true (Optimize.improvement r > 1.0);
      check Alcotest.int "every PREPARE query served incrementally"
        (r.Optimize.sweeps_run * 8) (Rt_obs.value incr_c);
      check Alcotest.int "no generic fallback for cop" 0 (Rt_obs.value full_c);
      check Alcotest.bool "one-coordinate moves committed in place" true
        (Rt_obs.value commits > 0))

let test_optimize_ndetect_objective () =
  (* The protocol end to end: an n-detect sweep still converges, and the
     2-detect test length dominates the single-detect one (detecting every
     fault twice can never need fewer patterns). *)
  let c = Generators.wide_and 8 in
  let faults = Rt_fault.Collapse.collapsed_universe c in
  let oracle = Detect.make Detect.Cop c faults in
  let run obj =
    Optimize.run
      ~options:{ Optimize.default_options with Optimize.objective = obj }
      oracle
  in
  let r1 = run Objective.single in
  let r2 = run (Objective.n_detect ~k:2) in
  check Alcotest.bool "n-detect sweep improves" true (Optimize.improvement r2 > 10.0);
  check Alcotest.bool "2-detect needs more patterns than 1-detect" true
    (r2.Optimize.n_final > r1.Optimize.n_final)

let two_stage_never_worse_qcheck =
  (* The adaptive design searches a split grid that always contains N1 = 0,
     whose candidate IS the single-stage design — so no fixed single-stage
     budget beats the chosen two-stage total (within float tolerance). *)
  QCheck.Test.make ~name:"two-stage total never exceeds the single-stage budget"
    ~count:4
    QCheck.(int_range 5 9)
    (fun width ->
      let c = Generators.wide_and width in
      let faults = Rt_fault.Collapse.collapsed_universe c in
      let oracle = Detect.make Detect.Cop c faults in
      let ts = Optimize.two_stage ~sim_cap:4096 oracle in
      let degenerate =
        List.exists
          (fun cand ->
            cand.Optimize.cand_n1 = 0
            && Float.abs (cand.Optimize.cand_total -. ts.Optimize.ts_single_n) < 1e-9)
          ts.Optimize.ts_candidates
      in
      degenerate && ts.Optimize.ts_total <= ts.Optimize.ts_single_n +. 1e-9)

let test_two_stage_pinned_split () =
  (* Pinning N1 skips the grid search and reports that split's design. *)
  let c = Generators.wide_and 8 in
  let faults = Rt_fault.Collapse.collapsed_universe c in
  let oracle = Detect.make Detect.Cop c faults in
  let ts = Optimize.two_stage ~n1:32 ~sim_cap:4096 oracle in
  check Alcotest.int "pinned split is the only candidate" 1
    (List.length ts.Optimize.ts_candidates);
  check Alcotest.int "chosen split is the pinned one" 32 ts.Optimize.ts_n1;
  check (Alcotest.float 1e-9) "total = N1 + N2" (32.0 +. ts.Optimize.ts_n2)
    ts.Optimize.ts_total;
  check Alcotest.int "stage-2 weights match input width" 8
    (Array.length ts.Optimize.ts_weights)

(* --- Two-stage split search: the pruned walk against the whole grid -------------- *)

module Oracle = Rt_testability.Oracle

let bits a = List.map (Printf.sprintf "%h") a

let report_bits (r : Optimize.report) =
  bits (Array.to_list r.Optimize.weights)
  @ bits [ r.Optimize.n_initial; r.Optimize.n_final ]
  @ [ string_of_int r.Optimize.sweeps_run ]
  @ bits r.Optimize.history @ bits r.Optimize.j_history
  @ List.map string_of_int (Array.to_list r.Optimize.undetectable)

let candidate_bits (c : Optimize.candidate) =
  [ string_of_int c.Optimize.cand_n1; string_of_int c.Optimize.cand_survivors ]
  @ bits [ c.Optimize.cand_n2; c.Optimize.cand_total ]

(* [oracle] with the faults outside [keep] masked to p = 0 after a full
   query: stage 2's analysis as it was before it queried a plan of the
   survivors alone.  Subset and cofactor queries pass through unmasked
   (PREPARE only asks for the hardest detectable, hence kept, faults). *)
let masked_oracle oracle keep =
  Oracle.make ~kind:(Oracle.kind oracle) ~label:(Oracle.describe oracle)
    ~c:(Oracle.circuit oracle) ~faults:(Oracle.faults oracle) ~exact:(Oracle.exact_mask oracle)
    ~redundant:(Oracle.proven_redundant oracle)
    ~run:(fun x -> Array.mapi (fun f p -> if keep.(f) then p else 0.0) (Oracle.probs oracle x))
    ~run_subset:(fun p x -> Oracle.probs_plan oracle p x)
    ~cofactor_pair:(fun p ~input x -> Oracle.cofactor_pair oracle p ~input ~x)
    ()

(* Every split of the default grid, each evaluated in full: survivors
   simulated over all faults with the [seed + n1] stream, stage 2 run on
   masked full queries.  Returns stage 1 and the candidates in ascending
   N1 with their stage-2 reports. *)
let exhaustive_two_stage ~sim_cap oracle =
  let seed = 0x2757 in
  let c = Oracle.circuit oracle and faults = Oracle.faults oracle in
  let stage1 = Optimize.run oracle in
  let n_single = stage1.Optimize.n_final in
  let pf1 = Oracle.probs oracle stage1.Optimize.weights in
  let base = if Float.is_finite n_single then n_single else 0.0 in
  let grid =
    List.map (fun f -> Float.to_int (Float.ceil (f *. base))) Optimize.default_n1_grid
    |> List.filter (fun v -> v >= 0 && v <= sim_cap)
    |> List.cons 0 |> List.sort_uniq compare
  in
  let count a = Array.fold_left (fun n b -> if b then n + 1 else n) 0 a in
  let evaluate n1 =
    if n1 = 0 then
      ( { Optimize.cand_n1 = 0; cand_survivors = count (Array.map (fun p -> p > 0.0) pf1);
          cand_n2 = n_single; cand_total = n_single },
        None )
    else begin
      let stats =
        Rt_sim.Fault_sim.simulate ~drop:true c faults
          ~source:(Rt_sim.Pattern.weighted (Rt_util.Rng.create (seed + n1)) stage1.Optimize.weights)
          ~n_patterns:n1
      in
      let keep =
        Array.mapi (fun f p -> p > 0.0 && stats.Rt_sim.Fault_sim.first_detect.(f) < 0) pf1
      in
      let survivors = count keep in
      if survivors = 0 then
        ( { Optimize.cand_n1 = n1; cand_survivors = 0; cand_n2 = 0.0;
            cand_total = Float.of_int n1 },
          None )
      else begin
        let options = { Optimize.default_options with start = Some stage1.Optimize.weights } in
        let r2 = Optimize.run ~options (masked_oracle oracle keep) in
        let n2 = r2.Optimize.n_final in
        let total = if Float.is_finite n2 then Float.of_int n1 +. n2 else Float.infinity in
        ( { Optimize.cand_n1 = n1; cand_survivors = survivors; cand_n2 = n2; cand_total = total },
          Some r2 )
      end
    end
  in
  (stage1, List.map evaluate grid)

let split_circuit =
  let print = function
    | `Wide w -> Printf.sprintf "wide_and %d" w
    | `Random seed -> Printf.sprintf "random_circuit ~inputs:8 ~gates:40 ~seed:%d" seed
    | `Multi_pin seed -> Printf.sprintf "Multi_pin.circuit (Rng.create %d) ~inputs:8 ~gates:40" seed
  in
  QCheck.make ~print
    QCheck.Gen.(
      oneof
        [ map (fun w -> `Wide w) (int_range 5 9);
          map (fun s -> `Random s) (int_range 0 10_000);
          map (fun s -> `Multi_pin s) (int_range 0 10_000) ])

let pruned_split_search_qcheck =
  QCheck.Test.make ~name:"pruned split search equals the exhaustive grid" ~count:100
    split_circuit (fun spec ->
      let c =
        match spec with
        | `Wide w -> Generators.wide_and w
        | `Random seed -> Generators.random_circuit ~inputs:8 ~gates:40 ~seed
        | `Multi_pin seed -> Multi_pin.circuit (Rt_util.Rng.create seed) ~inputs:8 ~gates:40
      in
      let faults = Rt_fault.Collapse.collapsed_universe c in
      let sim_cap = 65536 in
      let ts = Optimize.two_stage ~sim_cap (Detect.make Detect.Cop c faults) in
      let stage1, all = exhaustive_two_stage ~sim_cap (Detect.make Detect.Cop c faults) in
      let chosen, r2 =
        List.fold_left
          (fun ((b, _) as acc) ((c, _) as e) ->
            if c.Optimize.cand_total < b.Optimize.cand_total then e else acc)
          (List.hd all) (List.tl all)
      in
      (* The walk evaluates splits until N1 reaches the best total so far. *)
      let rec walk best = function
        | (c, _) :: rest when Float.of_int c.Optimize.cand_n1 < best ->
          c :: walk (Float.min best c.Optimize.cand_total) rest
        | _ -> []
      in
      let expected = walk Float.infinity all in
      let n_eval = List.length ts.Optimize.ts_candidates in
      let skipped = List.filteri (fun i _ -> i >= n_eval) all in
      let fail fmt = Printf.ksprintf (fun m -> QCheck.Test.fail_reportf "%s" m) fmt in
      if report_bits ts.Optimize.ts_stage1 <> report_bits stage1 then fail "stage 1 differs";
      if ts.Optimize.ts_n1 <> chosen.Optimize.cand_n1 then
        fail "split N1 %d, exhaustive %d" ts.Optimize.ts_n1 chosen.Optimize.cand_n1;
      if ts.Optimize.ts_survivors <> chosen.Optimize.cand_survivors then fail "survivors differ";
      if bits [ ts.Optimize.ts_n2; ts.Optimize.ts_total ]
         <> bits [ chosen.Optimize.cand_n2; chosen.Optimize.cand_total ]
      then fail "N2 or total differs";
      let weights = match r2 with Some r -> r.Optimize.weights | None -> stage1.Optimize.weights in
      if bits (Array.to_list ts.Optimize.ts_weights) <> bits (Array.to_list weights) then
        fail "weights differ";
      if Option.map report_bits ts.Optimize.ts_stage2 <> Option.map report_bits r2 then
        fail "stage-2 report differs";
      if List.concat_map candidate_bits ts.Optimize.ts_candidates
         <> List.concat_map
              (fun (c, _) -> candidate_bits c)
              (List.filteri (fun i _ -> i < n_eval) all)
      then fail "evaluated splits are not a prefix of the grid";
      List.iter
        (fun (c, _) ->
          if Float.of_int c.Optimize.cand_n1 < ts.Optimize.ts_total then
            fail "skipped N1 = %d below the total %h" c.Optimize.cand_n1 ts.Optimize.ts_total)
        skipped;
      if List.length expected <> n_eval then
        fail "%d splits evaluated, %d before the cutoff" n_eval (List.length expected);
      true)

let test_split_at_best_total_skipped () =
  (* A split whose N1 equals the best total so far cannot win (its total
     is at least N1 and the choice keeps the first strictly smaller one),
     so the walk stops there.  On wide_and 8 the grid's N1 = 27 reaches a
     total of 48; a grid point placed at exactly N1 = 48 is not evaluated. *)
  let c = Generators.wide_and 8 in
  let oracle () = Detect.make Detect.Cop c (Rt_fault.Collapse.collapsed_universe c) in
  let ts = Optimize.two_stage (oracle ()) in
  let n = ts.Optimize.ts_single_n in
  let f =
    List.find
      (fun f -> Float.to_int (Float.ceil (f *. n)) = ts.Optimize.ts_n1)
      Optimize.default_n1_grid
  in
  let at_total = Float.to_int ts.Optimize.ts_total in
  check Alcotest.bool "total is an integer above N1" true
    (Float.of_int at_total = ts.Optimize.ts_total && at_total > ts.Optimize.ts_n1);
  let ts' =
    Optimize.two_stage ~n1_grid:[ f; (Float.of_int at_total -. 0.5) /. n ] (oracle ())
  in
  check (Alcotest.list Alcotest.int) "evaluated splits" [ 0; ts.Optimize.ts_n1 ]
    (List.map (fun c -> c.Optimize.cand_n1) ts'.Optimize.ts_candidates);
  check Alcotest.string "same total" (Printf.sprintf "%h" ts.Optimize.ts_total)
    (Printf.sprintf "%h" ts'.Optimize.ts_total)

let test_keep_all_is_run () =
  (* A mask that keeps every fault queries a plan of all faults, which is
     the full query bit for bit. *)
  List.iter
    (fun c ->
      let faults = Rt_fault.Collapse.collapsed_universe c in
      let r = Optimize.run (Detect.make Detect.Cop c faults) in
      let keep = Array.make (Array.length faults) true in
      let rk = Optimize.run ~keep (Detect.make Detect.Cop c faults) in
      check (Alcotest.list Alcotest.string) "keep-all report" (report_bits r) (report_bits rk))
    [ Generators.wide_and 8; Generators.random_circuit ~inputs:8 ~gates:40 ~seed:3 ]

let test_partition_antagonist () =
  let c = Generators.antagonist ~k:10 () in
  let faults = Rt_fault.Collapse.collapsed_universe c in
  let oracle = Detect.make (Detect.Bdd_exact { node_limit = 100_000 }) c faults in
  let sp = Partition.split oracle in
  check Alcotest.int "two parts" 2 (Array.length sp.Partition.groups);
  check Alcotest.bool "partitioning wins big" true (sp.Partition.n_total *. 5.0 < sp.Partition.n_single);
  (* The two distributions must pull opposite ways. *)
  let w0 = sp.Partition.weights.(0).(0) and w1 = sp.Partition.weights.(1).(0) in
  check Alcotest.bool "opposite extremes" true ((w0 > 0.7 && w1 < 0.3) || (w0 < 0.3 && w1 > 0.7))

let test_antagonism_measure () =
  let v = [| 1.0; -2.0; 0.5 |] in
  let neg = Array.map (fun x -> -.x) v in
  check (Alcotest.float 1e-9) "self" (-1.0) (Partition.antagonism v v);
  check (Alcotest.float 1e-9) "negated" 1.0 (Partition.antagonism v neg)

let () =
  let q = QCheck_alcotest.to_alcotest ~long:false in
  Alcotest.run "rt_optprob"
    [ ( "objective",
        [ Alcotest.test_case "value" `Quick test_objective_value;
          Alcotest.test_case "confidence consistency" `Quick test_objective_confidence_consistency;
          q derivatives_qcheck;
          Alcotest.test_case "poisson tail identities" `Quick test_poisson_tail_identities;
          Alcotest.test_case "ndetect:1 matches single" `Quick test_ndetect_one_matches_single;
          q poisson_tail_convex_qcheck;
          q ndetect_derivatives_qcheck;
          q derivatives_matches_reference_qcheck ] );
      ( "normalize",
        [ Alcotest.test_case "matches direct search" `Quick test_normalize_matches_direct;
          Alcotest.test_case "excludes zeros" `Quick test_normalize_excludes_zeros;
          Alcotest.test_case "all zero" `Quick test_normalize_all_zero;
          Alcotest.test_case "hard prefix" `Quick test_normalize_hard_prefix;
          Alcotest.test_case "tiny p_f gives a finite N" `Quick test_tiny_pf_finite_n;
          q normalize_sorted_qcheck;
          q normalize_matches_reference_qcheck ] );
      ( "minimize",
        [ q minimize_qcheck;
          Alcotest.test_case "boundary optimum" `Quick test_minimize_boundary;
          q newton_matches_reference_qcheck;
          Alcotest.test_case "boundary derivative calls" `Quick test_minimize_boundary_calls;
          Alcotest.test_case "p0/p1 length mismatch" `Quick test_minimize_length_mismatch ] );
      ( "optimize",
        [ Alcotest.test_case "wide AND" `Quick test_optimize_improves_wide_and;
          Alcotest.test_case "s1 order of magnitude" `Slow test_optimize_s1_order_of_magnitude;
          Alcotest.test_case "respects start" `Quick test_optimize_respects_start;
          Alcotest.test_case "rejects bad start" `Quick test_optimize_rejects_bad_start;
          Alcotest.test_case "incremental cofactors drive PREPARE" `Quick
            test_optimize_uses_incremental_cofactors;
          Alcotest.test_case "n-detect objective end to end" `Quick
            test_optimize_ndetect_objective ] );
      ( "two-stage",
        [ q two_stage_never_worse_qcheck;
          Alcotest.test_case "pinned split" `Quick test_two_stage_pinned_split;
          q pruned_split_search_qcheck;
          Alcotest.test_case "split at the best total skipped" `Quick
            test_split_at_best_total_skipped;
          Alcotest.test_case "keep all is run" `Quick test_keep_all_is_run ] );
      ( "partition",
        [ Alcotest.test_case "antagonist" `Quick test_partition_antagonist;
          Alcotest.test_case "antagonism measure" `Quick test_antagonism_measure ] ) ]
