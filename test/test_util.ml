(* Unit and property tests for Rt_util: Rng, Prob, Stats, Bits,
   and the Parallel/Pool multicore layer. *)

module Rng = Rt_util.Rng
module Prob = Rt_util.Prob
module Stats = Rt_util.Stats
module Parallel = Rt_util.Parallel
module Pool = Rt_util.Pool
module Bits = Rt_util.Bits

let check = Alcotest.check
let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg

(* --- Rng ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if not (Int64.equal (Rng.bits64 a) (Rng.bits64 b)) then differs := true
  done;
  check Alcotest.bool "different seeds differ" true !differs

let test_rng_copy_independent () =
  (* A copy replays the same stream, and draws from one side do not
     advance the other. *)
  let a = Rng.create 7 in
  let b = Rng.copy a in
  let a1 = Rng.bits64 a in
  let a2 = Rng.bits64 a in
  let b1 = Rng.bits64 b in
  let b2 = Rng.bits64 b in
  check Alcotest.int64 "first draw equal" a1 b1;
  check Alcotest.int64 "second draw equal" a2 b2

let test_rng_int_range () =
  let r = Rng.create 3 in
  for _ = 1 to 10_000 do
    let x = Rng.int r 7 in
    if x < 0 || x >= 7 then Alcotest.fail "int out of range"
  done

let test_rng_int_uniform () =
  let r = Rng.create 11 in
  let counts = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let x = Rng.int r 10 in
    counts.(x) <- counts.(x) + 1
  done;
  Array.iter
    (fun c ->
      let p = Float.of_int c /. Float.of_int n in
      if Float.abs (p -. 0.1) > 0.01 then Alcotest.failf "bucket prob %.3f far from 0.1" p)
    counts

let test_rng_float_range () =
  let r = Rng.create 5 in
  for _ = 1 to 10_000 do
    let x = Rng.float r in
    if x < 0.0 || x >= 1.0 then Alcotest.fail "float out of [0,1)"
  done

let test_biased_word_statistics () =
  let r = Rng.create 9 in
  List.iter
    (fun p ->
      let ones = ref 0 in
      let words = 4000 in
      for _ = 1 to words do
        let w = Rng.biased_word r p in
        let rec pop x acc = if Int64.equal x 0L then acc else pop (Int64.logand x (Int64.sub x 1L)) (acc + 1) in
        ones := !ones + pop w 0
      done;
      let measured = Float.of_int !ones /. Float.of_int (64 * words) in
      if Float.abs (measured -. p) > 0.01 then
        Alcotest.failf "biased_word(%.2f) measured %.4f" p measured)
    [ 0.05; 0.25; 0.5; 0.75; 0.9375 ]

let test_biased_word_extremes () =
  let r = Rng.create 1 in
  check Alcotest.int64 "p=0" 0L (Rng.biased_word r 0.0);
  check Alcotest.int64 "p=1" (-1L) (Rng.biased_word r 1.0)

let test_shuffle_permutation () =
  let r = Rng.create 17 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check Alcotest.(array int) "shuffle is a permutation" (Array.init 50 Fun.id) sorted

(* Golden stream: literal outputs captured before the generator state was
   moved to an unboxed buffer.  Any change to the xoshiro step, the
   splitmix seeding, [split], [copy] or the bit-sliced [biased_word]
   fails here directly, not only through downstream digests. *)
type golden = {
  g_seed : int;
  g_words : int64 list;  (* first 8 [bits64] of a fresh generator *)
  g_biased : int64 list;  (* [biased_word] at 0.5, 0.3, 0.02, 0.375, in turn *)
  g_float : float;  (* then [float], [int 7], [int 8] on the same stream *)
  g_int7 : int;
  g_int8 : int;
  g_child : int64 * int64;  (* first two words of [split] of a fresh generator *)
  g_second : int64;  (* word 2 of the stream: the parent after [split], and a [copy] *)
}

let goldens =
  [ { g_seed = 0;
      g_words =
        [ -7355399402456485196L; -4652746763540216534L; 1900383378846508768L;
          7684712102626143532L; -4925340083591827879L; -4640532413560118L;
          7788427924976520344L; -8565655843838424513L ];
      g_biased = [ -7355399402456485196L; 2582293231241937617L; 8796093038592L; -8813497820840457718L ];
      g_float = 0x1.29d6d4ef401cbp-1;
      g_int7 = 5;
      g_int8 = 4;
      g_child = (-3611815244658370711L, -2112246589720797342L);
      g_second = -4652746763540216534L };
    { g_seed = 1;
      g_words =
        [ -5480124913605472059L; -8846382939111011094L; -7856363154187860716L;
          7218738570589545383L; -5586072249713871245L; 2648436617965840162L;
          1310552918490157286L; 7031611932980406429L ];
      g_biased = [ -5480124913605472059L; 165567225061810441L; 4398046511104L; 1301574672331047977L ];
      g_float = 0x1.fbf5ae2ba5ffep-2;
      g_int7 = 2;
      g_int8 = 3;
      g_child = (-1087910903155404370L, 2592918661114225513L);
      g_second = -8846382939111011094L };
    { g_seed = 42;
      g_words =
        [ 1546998764402558742L; 6990951692964543102L; -5902157311460992607L;
          -1389169964527427423L; -151191095644234140L; -4247557243643801032L;
          -5178765164775350862L; -2766855848391737209L ];
      g_biased = [ 1546998764402558742L; 3029136946651270104L; 0L; 1659330239459407444L ];
      g_float = 0x1.728eff5743c99p-1;
      g_int7 = 3;
      g_int8 = 4;
      g_child = (8045409100215604067L, 2161474970721225608L);
      g_second = 6990951692964543102L } ]

let test_rng_golden_stream () =
  List.iter
    (fun g ->
      let msg what = Printf.sprintf "seed %d %s" g.g_seed what in
      let t = Rng.create g.g_seed in
      check Alcotest.(list int64) (msg "bits64") g.g_words (List.map (fun _ -> Rng.bits64 t) g.g_words);
      let t = Rng.create g.g_seed in
      check Alcotest.(list int64) (msg "biased_word") g.g_biased
        (List.map (Rng.biased_word t) [ 0.5; 0.3; 0.02; 0.375 ]);
      let f = Rng.float t in
      check Alcotest.int64 (msg "float") (Int64.bits_of_float g.g_float) (Int64.bits_of_float f);
      let i7 = Rng.int t 7 in
      let i8 = Rng.int t 8 in
      check Alcotest.(pair int int) (msg "int 7, int 8") (g.g_int7, g.g_int8) (i7, i8);
      let t = Rng.create g.g_seed in
      let child = Rng.split t in
      let c1 = Rng.bits64 child in
      let c2 = Rng.bits64 child in
      check Alcotest.(pair int64 int64) (msg "split child") g.g_child (c1, c2);
      check Alcotest.int64 (msg "parent after split") g.g_second (Rng.bits64 t);
      let t = Rng.create g.g_seed in
      ignore (Rng.bits64 t);
      let cp = Rng.copy t in
      check Alcotest.int64 (msg "copy") g.g_second (Rng.bits64 cp);
      check Alcotest.int64 (msg "original after copy") g.g_second (Rng.bits64 t))
    goldens

(* A biased word costs 30 state steps; with an unboxed state only the
   returned int64 is boxed, so well under 8 minor words a call. *)
let test_biased_word_allocation () =
  let r = Rng.create 3 in
  ignore (Rng.biased_word r 0.3);
  let calls = 1000 in
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    ignore (Sys.opaque_identity (Rng.biased_word r 0.3))
  done;
  let words = (Gc.minor_words () -. before) /. Float.of_int calls in
  if words > 8.0 then Alcotest.failf "biased_word allocates %.1f minor words per call" words

(* --- Prob ------------------------------------------------------------------- *)

let test_clamp () =
  checkf "below" 0.0 (Prob.clamp (-0.5));
  checkf "above" 1.0 (Prob.clamp 1.5);
  checkf "inside" 0.3 (Prob.clamp 0.3);
  checkf "interior" 0.05 (Prob.interior 0.05 0.0)

let test_quantize () =
  checkf "grid 0.05" 0.35 (Prob.quantize ~grid:0.05 0.37);
  checkf "grid floor" 0.05 (Prob.quantize ~grid:0.05 0.0);
  checkf "grid ceil" 0.95 (Prob.quantize ~grid:0.05 1.0);
  checkf "dyadic" 0.25 (Prob.quantize_dyadic ~bits:4 0.26);
  checkf "dyadic floor" (1.0 /. 16.0) (Prob.quantize_dyadic ~bits:4 0.0)

let test_complement_product () =
  checkf "single" 0.3 (Prob.complement_product [| 0.3 |]);
  checkf "two independent" 0.75 (Prob.complement_product [| 0.5; 0.5 |]);
  checkf "with zero" 0.5 (Prob.complement_product [| 0.5; 0.0 |])

let test_detection_confidence () =
  (* One fault with p = 0.5 and n = 1: confidence 0.5. *)
  checkf "simple" 0.5 (Prob.detection_confidence ~n:1.0 [| 0.5 |]);
  (* Undetectable fault: confidence 0. *)
  checkf "undetectable" 0.0 (Prob.detection_confidence ~n:1e9 [| 0.0; 0.5 |]);
  (* Large n: confidence approaches 1. *)
  let c = Prob.detection_confidence ~n:1e6 [| 0.01; 0.02 |] in
  check Alcotest.bool "large n near 1" true (c > 0.999999)

let prob_qcheck =
  [ QCheck.Test.make ~name:"confidence is within [0,1] and monotone in n" ~count:300
      QCheck.(pair (list_of_size Gen.(1 -- 10) (float_range 0.0001 1.0)) (float_range 1.0 1e5))
      (fun (ps, n) ->
        let ps = Array.of_list ps in
        let c1 = Prob.detection_confidence ~n ps in
        let c2 = Prob.detection_confidence ~n:(2.0 *. n) ps in
        c1 >= 0.0 && c1 <= 1.0 && c2 >= c1 -. 1e-12);
    QCheck.Test.make ~name:"quantize lands on grid" ~count:300
      QCheck.(float_range 0.0 1.0)
      (fun x ->
        let q = Prob.quantize ~grid:0.05 x in
        let k = q /. 0.05 in
        Float.abs (k -. Float.round k) < 1e-9) ]

(* --- Stats ------------------------------------------------------------------- *)

let test_stats_mean_var () =
  checkf "mean" 2.0 (Stats.mean [| 1.0; 2.0; 3.0 |]);
  checkf "variance" 1.0 (Stats.variance [| 1.0; 2.0; 3.0 |]);
  checkf "empty mean" 0.0 (Stats.mean [||])

let test_stats_quantile () =
  let a = [| 5.0; 1.0; 3.0; 2.0; 4.0 |] in
  checkf "median" 3.0 (Stats.quantile 0.5 a);
  checkf "min" 1.0 (Stats.quantile 0.0 a);
  checkf "max" 5.0 (Stats.quantile 1.0 a)

let test_geometric_steps () =
  let steps = Stats.geometric_steps ~lo:10 ~hi:1000 ~per_decade:2 in
  check Alcotest.int "first" 10 (List.hd steps);
  check Alcotest.int "last" 1000 (List.nth steps (List.length steps - 1));
  let rec increasing = function
    | a :: (b :: _ as rest) -> a < b && increasing rest
    | _ -> true
  in
  check Alcotest.bool "strictly increasing" true (increasing steps)

(* --- Bits ------------------------------------------------------------------ *)

let popcount_ref w =
  let c = ref 0 in
  for i = 0 to 63 do
    if Int64.logand (Int64.shift_right_logical w i) 1L <> 0L then incr c
  done;
  !c

let ctz_ref w =
  let rec go i = if i = 64 || Int64.logand (Int64.shift_right_logical w i) 1L <> 0L then i else go (i + 1) in
  go 0

let test_bits_edge_cases () =
  check Alcotest.int "popcount 0" 0 (Bits.popcount 0L);
  check Alcotest.int "popcount -1" 64 (Bits.popcount (-1L));
  check Alcotest.int "popcount 1" 1 (Bits.popcount 1L);
  check Alcotest.int "popcount msb" 1 (Bits.popcount Int64.min_int);
  (* The helper this replaced looped forever on zero. *)
  check Alcotest.int "ctz 0 is total" 64 (Bits.ctz 0L);
  check Alcotest.int "ctz 1" 0 (Bits.ctz 1L);
  check Alcotest.int "ctz msb" 63 (Bits.ctz Int64.min_int);
  check Alcotest.int64 "lowest_bit 0" 0L (Bits.lowest_bit 0L);
  check Alcotest.int64 "lowest_bit 12" 4L (Bits.lowest_bit 12L)

let bits_qcheck =
  let word =
    QCheck.(
      map
        (fun (a, b) -> Int64.logxor (Int64.shift_left (Int64.of_int a) 32) (Int64.of_int b))
        (pair int int))
  in
  [ QCheck.Test.make ~name:"popcount matches bit loop" ~count:500 word
      (fun w -> Bits.popcount w = popcount_ref w);
    QCheck.Test.make ~name:"ctz matches bit loop" ~count:500 word
      (fun w -> Bits.ctz w = ctz_ref w);
    QCheck.Test.make ~name:"lowest_bit isolates ctz" ~count:500 word
      (fun w ->
        if Int64.equal w 0L then Bits.lowest_bit w = 0L
        else Bits.lowest_bit w = Int64.shift_left 1L (Bits.ctz w)) ]

(* --- Parallel ------------------------------------------------------------------ *)

(* Parallel.sweep clamps to the hardware core count; lifting the clamp
   makes these tests run real pool domains even on a single-core host. *)
let () = Unix.putenv "OPTPROB_JOBS_OVERCOMMIT" "1"

let test_parallel_worker_exception () =
  (* An exception in a pool-run slice must surface on the caller. *)
  match
    Parallel.sweep ~grain:1 ~jobs:4 ~n:64 (fun ~worker:_ ~lo ~hi:_ ->
        if lo = 40 then failwith "boom")
  with
  | () -> Alcotest.fail "expected the worker's exception"
  | exception Failure msg -> check Alcotest.string "message" "boom" msg

let test_parallel_resolve () =
  check Alcotest.int "explicit wins" 5 (Parallel.resolve_jobs (Some 5));
  check Alcotest.int "nonsense clamps to serial" 1 (Parallel.resolve_jobs (Some 0));
  check Alcotest.int "cap" Parallel.max_jobs (Parallel.resolve_jobs (Some 10_000))

(* --- Pool ------------------------------------------------------------------ *)

(* Pool.run honours [participants] exactly (the hardware clamp lives in
   Parallel's sweep policy), so these tests exercise real cross-domain
   scheduling even on a single-core host. *)

let test_pool_covers_once () =
  let p = Pool.create () in
  Fun.protect ~finally:(fun () -> Pool.shutdown p)
    (fun () ->
      let n = 10_000 in
      let hits = Array.init n (fun _ -> Atomic.make 0) in
      Pool.run p ~grain:7 ~participants:4 ~n (fun _worker lo hi ->
          for i = lo to hi - 1 do
            Atomic.incr hits.(i)
          done);
      Array.iteri
        (fun i h -> if Atomic.get h <> 1 then Alcotest.failf "index %d visited %d times" i (Atomic.get h))
        hits;
      check Alcotest.int "grew exactly participants - 1 domains" 3 (Pool.size p))

let test_pool_reuse_and_growth () =
  let p = Pool.create () in
  Fun.protect ~finally:(fun () -> Pool.shutdown p)
    (fun () ->
      let total = Atomic.make 0 in
      Pool.run p ~participants:2 ~n:100 (fun _ lo hi -> ignore (Atomic.fetch_and_add total (hi - lo)));
      check Alcotest.int "one worker after 2-way region" 1 (Pool.size p);
      (* Regions reuse parked domains; a wider region grows the pool. *)
      for _ = 1 to 20 do
        Pool.run p ~participants:4 ~n:50 (fun _ lo hi -> ignore (Atomic.fetch_and_add total (hi - lo)))
      done;
      check Alcotest.int "grown once to 3 workers" 3 (Pool.size p);
      check Alcotest.int "all items ran" (100 + (20 * 50)) (Atomic.get total))

let test_pool_exception_propagates () =
  let p = Pool.create () in
  Fun.protect ~finally:(fun () -> Pool.shutdown p)
    (fun () ->
      (match Pool.run p ~grain:1 ~participants:4 ~n:64 (fun _ lo _ -> if lo = 40 then failwith "boom") with
       | () -> Alcotest.fail "expected the worker's exception"
       | exception Failure msg -> check Alcotest.string "message" "boom" msg);
      (* The pool survives a failed region. *)
      let total = Atomic.make 0 in
      Pool.run p ~participants:4 ~n:64 (fun _ lo hi -> ignore (Atomic.fetch_and_add total (hi - lo)));
      check Alcotest.int "next region runs everything" 64 (Atomic.get total))

let test_pool_nested_runs_inline () =
  let p = Pool.create () in
  Fun.protect ~finally:(fun () -> Pool.shutdown p)
    (fun () ->
      let inner_total = Atomic.make 0 in
      let saw_worker_flag = Atomic.make true in
      Pool.run p ~grain:1 ~participants:3 ~n:12 (fun _ _ _ ->
          if not (Pool.in_worker ()) then Atomic.set saw_worker_flag false;
          (* A nested submission must not deadlock on the submit lock; it
             runs the body inline. *)
          Pool.run p ~participants:3 ~n:5 (fun w lo hi ->
              if w <> 0 || lo <> 0 || hi <> 5 then Atomic.set saw_worker_flag false;
              ignore (Atomic.fetch_and_add inner_total (hi - lo))));
      check Alcotest.bool "in_worker set and nested runs inline" true (Atomic.get saw_worker_flag);
      check Alcotest.int "nested regions all ran" (12 * 5) (Atomic.get inner_total));
  check Alcotest.bool "in_worker cleared outside regions" false (Pool.in_worker ())

let test_pool_create_teardown_no_leak () =
  (* Repeated create/run/shutdown must terminate (join all domains) and a
     shut-down pool must refuse further parallel work. *)
  for _ = 1 to 10 do
    let p = Pool.create () in
    let total = Atomic.make 0 in
    Pool.run p ~participants:4 ~n:256 (fun _ lo hi -> ignore (Atomic.fetch_and_add total (hi - lo)));
    Pool.shutdown p;
    check Alcotest.int "covered before shutdown" 256 (Atomic.get total);
    check Alcotest.int "no domains after shutdown" 0 (Pool.size p)
  done;
  let p = Pool.create () in
  Pool.shutdown p;
  Pool.shutdown p;  (* idempotent *)
  (match Pool.run p ~participants:2 ~n:8 (fun _ _ _ -> ()) with
   | () -> Alcotest.fail "expected Invalid_argument after shutdown"
   | exception Invalid_argument _ -> ());
  (* Serial and empty regions never need domains, even shut down. *)
  Pool.run p ~participants:1 ~n:8 (fun _ _ _ -> ());
  Pool.run p ~participants:4 ~n:0 (fun _ _ _ -> ())

let test_parallel_sweep_covers_once () =
  let n = 5000 in
  let hits = Array.init n (fun _ -> Atomic.make 0) in
  Parallel.sweep ~grain:13 ~jobs:4 ~n (fun ~worker:_ ~lo ~hi ->
      for i = lo to hi - 1 do
        Atomic.incr hits.(i)
      done);
  Array.iteri
    (fun i h -> if Atomic.get h <> 1 then Alcotest.failf "index %d visited %d times" i (Atomic.get h))
    hits

let parallel_sweep_qcheck =
  QCheck.Test.make ~name:"sweep sums match serial" ~count:50
    QCheck.(triple (int_range 0 500) (int_range 1 8) (int_range 1 40))
    (fun (n, jobs, grain) ->
      let out = Array.make n 0 in
      Parallel.sweep ~grain ~jobs ~n (fun ~worker:_ ~lo ~hi ->
          for i = lo to hi - 1 do
            out.(i) <- i
          done);
      Array.fold_left ( + ) 0 out = n * (n - 1) / 2)

let () =
  let qsuite name tests = (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests) in
  Alcotest.run "rt_util"
    [ ( "rng",
        [ Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "copy independent" `Quick test_rng_copy_independent;
          Alcotest.test_case "int range" `Quick test_rng_int_range;
          Alcotest.test_case "int uniform" `Quick test_rng_int_uniform;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "biased word statistics" `Quick test_biased_word_statistics;
          Alcotest.test_case "biased word extremes" `Quick test_biased_word_extremes;
          Alcotest.test_case "golden stream" `Quick test_rng_golden_stream;
          Alcotest.test_case "biased word allocation" `Quick test_biased_word_allocation;
          Alcotest.test_case "shuffle permutation" `Quick test_shuffle_permutation ] );
      ( "prob",
        [ Alcotest.test_case "clamp" `Quick test_clamp;
          Alcotest.test_case "quantize" `Quick test_quantize;
          Alcotest.test_case "complement product" `Quick test_complement_product;
          Alcotest.test_case "detection confidence" `Quick test_detection_confidence ] );
      qsuite "prob-properties" prob_qcheck;
      ( "stats",
        [ Alcotest.test_case "mean/variance" `Quick test_stats_mean_var;
          Alcotest.test_case "quantile" `Quick test_stats_quantile;
          Alcotest.test_case "geometric steps" `Quick test_geometric_steps ] );
      ( "bits",
        Alcotest.test_case "edge cases" `Quick test_bits_edge_cases
        :: List.map (QCheck_alcotest.to_alcotest ~long:false) bits_qcheck );
      ( "parallel",
        [ Alcotest.test_case "worker exception propagates" `Quick test_parallel_worker_exception;
          Alcotest.test_case "resolve_jobs policy" `Quick test_parallel_resolve;
          Alcotest.test_case "sweep covers every index once" `Quick test_parallel_sweep_covers_once;
          QCheck_alcotest.to_alcotest ~long:false parallel_sweep_qcheck ] );
      ( "pool",
        [ Alcotest.test_case "covers every index once" `Quick test_pool_covers_once;
          Alcotest.test_case "reuses and grows domains" `Quick test_pool_reuse_and_growth;
          Alcotest.test_case "exception propagates, pool survives" `Quick
            test_pool_exception_propagates;
          Alcotest.test_case "nested regions run inline" `Quick test_pool_nested_runs_inline;
          Alcotest.test_case "create/teardown leaks nothing" `Quick
            test_pool_create_teardown_no_leak ] ) ]
