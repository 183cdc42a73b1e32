(* Tests for Rt_sim: pattern batches/sources, the 64-way logic simulator,
   PPSFP fault simulation against the single-pattern reference, and
   coverage accounting. *)

module Pattern = Rt_sim.Pattern
module Logic_sim = Rt_sim.Logic_sim
module Fault_sim = Rt_sim.Fault_sim
module Detect_mc = Rt_sim.Detect_mc
module Netlist = Rt_circuit.Netlist
module Gate = Rt_circuit.Gate
module Fault = Rt_fault.Fault
module Rng = Rt_util.Rng
module Generators = Rt_circuit.Generators

let check = Alcotest.check

let bits_of_int w v = Array.init w (fun i -> (v lsr i) land 1 = 1)

(* --- Pattern ------------------------------------------------------------------ *)

let test_of_vectors_roundtrip () =
  let vectors = Array.init 100 (fun i -> bits_of_int 9 (i * 37)) in
  let batches = Pattern.of_vectors vectors in
  check Alcotest.int "two batches" 2 (List.length batches);
  let flat =
    List.concat_map
      (fun b -> List.init b.Pattern.n_patterns (fun l -> Pattern.pattern b l))
      batches
  in
  List.iteri
    (fun i v ->
      if v <> vectors.(i) then Alcotest.failf "pattern %d corrupted by packing" i)
    flat

let test_lane_mask () =
  let b = List.hd (Pattern.of_vectors (Array.init 5 (fun i -> bits_of_int 3 i))) in
  check Alcotest.int64 "5 lanes" 0x1FL (Pattern.lane_mask b)

let test_take_exact () =
  let rng = Rt_util.Rng.create 3 in
  let src = Pattern.equiprobable rng ~n_inputs:4 in
  let batches = Pattern.take src 130 in
  let total = List.fold_left (fun acc b -> acc + b.Pattern.n_patterns) 0 batches in
  check Alcotest.int "exactly 130 patterns" 130 total

let test_weighted_statistics () =
  let weights = [| 0.1; 0.5; 0.9 |] in
  let rng = Rt_util.Rng.create 17 in
  let src = Pattern.weighted rng weights in
  let counts = Array.make 3 0 in
  let n_batches = 400 in
  for _ = 1 to n_batches do
    let b = src () in
    Array.iteri
      (fun i w ->
        let rec pop x acc = if Int64.equal x 0L then acc else pop (Int64.logand x (Int64.sub x 1L)) (acc + 1) in
        counts.(i) <- counts.(i) + pop w 0)
      b.Pattern.bits
  done;
  Array.iteri
    (fun i c ->
      let measured = Float.of_int c /. Float.of_int (64 * n_batches) in
      if Float.abs (measured -. weights.(i)) > 0.015 then
        Alcotest.failf "weight %d measured %.3f wanted %.2f" i measured weights.(i))
    counts

let test_fill_block_truncates () =
  let rng = Rt_util.Rng.create 9 in
  let src = Pattern.equiprobable rng ~n_inputs:5 in
  let blk = Pattern.make_block ~n_inputs:5 ~words:4 in
  Pattern.fill_block src blk ~needed:150;
  check Alcotest.int "stops at needed" 3 blk.Pattern.filled;
  check (Alcotest.array Alcotest.int) "last word truncated" [| 64; 64; 22; 0 |] blk.Pattern.counts;
  check Alcotest.int "total" 150 blk.Pattern.total;
  (* Refill overwrites the previous contents entirely. *)
  Pattern.fill_block src blk ~needed:40;
  check Alcotest.int "one word refill" 1 blk.Pattern.filled;
  check (Alcotest.array Alcotest.int) "refill counts" [| 40; 0; 0; 0 |] blk.Pattern.counts

let test_block_resolve () =
  check Alcotest.int "explicit wins" 8 (Pattern.resolve_block_words (Some 8));
  check Alcotest.int "nonsense clamps to one word" 1 (Pattern.resolve_block_words (Some 0));
  check Alcotest.int "cap" Pattern.max_block_words (Pattern.resolve_block_words (Some 10_000))

(* --- Logic_sim ------------------------------------------------------------------ *)

let logic_sim_vs_eval_qcheck =
  QCheck.Test.make ~name:"word simulation equals scalar evaluation" ~count:30
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c = Generators.random_circuit ~inputs:8 ~gates:50 ~seed in
      let sim = Logic_sim.create c in
      let vectors = Array.init 64 (fun i -> bits_of_int 8 ((i * 2654435761) land 255)) in
      let batch = List.hd (Pattern.of_vectors vectors) in
      Logic_sim.run sim batch;
      let ok = ref true in
      for lane = 0 to 63 do
        let vals = Netlist.eval c vectors.(lane) in
        for n = 0 to Netlist.size c - 1 do
          let got = Int64.logand (Int64.shift_right_logical (Logic_sim.value sim n) lane) 1L <> 0L in
          if got <> vals.(n) then ok := false
        done
      done;
      !ok)

let wide_sim_vs_narrow_qcheck =
  QCheck.Test.make ~name:"wide simulation equals narrow word by word" ~count:20
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c = Generators.random_circuit ~inputs:6 ~gates:40 ~seed in
      let rng = Rt_util.Rng.create seed in
      let src = Pattern.equiprobable rng ~n_inputs:6 in
      let batches = Array.init 3 (fun _ -> src ()) in
      let i = ref 0 in
      let replay () =
        let b = batches.(!i) in
        incr i;
        b
      in
      let blk = Pattern.make_block ~n_inputs:6 ~words:3 in
      Pattern.fill_block replay blk ~needed:192;
      let wide = Fault_sim.good_values c blk in
      let narrow = Logic_sim.create c in
      let ok = ref true in
      for w = 0 to 2 do
        Logic_sim.run narrow batches.(w);
        for n = 0 to Netlist.size c - 1 do
          if not (Int64.equal (Logic_sim.value narrow n) (Bigarray.Array1.get wide ((n * 3) + w)))
          then ok := false
        done
      done;
      !ok)

(* --- Fault_sim ------------------------------------------------------------------- *)

let ppsfp_vs_reference_qcheck =
  QCheck.Test.make ~name:"ppsfp equals single-pattern reference" ~count:12
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c = Generators.random_circuit ~inputs:8 ~gates:40 ~seed in
      let faults = Rt_fault.Collapse.collapsed_universe c in
      let rng = Rt_util.Rng.create (seed + 1) in
      let vectors = Array.init 100 (fun _ -> Array.init 8 (fun _ -> Rt_util.Rng.bool rng)) in
      let batches = ref (Pattern.of_vectors vectors) in
      let source () =
        match !batches with
        | [] -> Alcotest.fail "source exhausted"
        | b :: rest ->
          batches := rest;
          b
      in
      let stats = Fault_sim.simulate ~drop:false c faults ~source ~n_patterns:100 in
      let ok = ref true in
      Array.iteri
        (fun fi f ->
          let count =
            Array.fold_left (fun acc v -> if Fault_sim.detects c f v then acc + 1 else acc) 0 vectors
          in
          let first = ref (-1) in
          Array.iteri (fun i v -> if !first < 0 && Fault_sim.detects c f v then first := i) vectors;
          if count <> stats.Fault_sim.detect_count.(fi) then ok := false;
          if !first <> stats.Fault_sim.first_detect.(fi) then ok := false)
        faults;
      !ok)

let test_drop_consistency () =
  (* With dropping, first_detect must be identical to the no-drop run. *)
  let c = Generators.c432ish () in
  let faults = Rt_fault.Collapse.collapsed_universe c in
  let run drop =
    let rng = Rt_util.Rng.create 5 in
    let source = Pattern.equiprobable rng ~n_inputs:36 in
    Fault_sim.simulate ~drop c faults ~source ~n_patterns:512
  in
  let a = run true and b = run false in
  check Alcotest.(array int) "first_detect equal" b.Fault_sim.first_detect a.Fault_sim.first_detect

let test_coverage_monotone () =
  let c = Generators.c880ish () in
  let faults = Rt_fault.Collapse.collapsed_universe c in
  let rng = Rt_util.Rng.create 5 in
  let source = Pattern.equiprobable rng ~n_inputs:22 in
  let stats = Fault_sim.simulate c faults ~source ~n_patterns:1024 in
  let curve = Fault_sim.coverage_curve stats ~points:[ 16; 64; 256; 1024 ] in
  let rec mono = function
    | (_, a) :: ((_, b) :: _ as rest) -> a <= b +. 1e-12 && mono rest
    | _ -> true
  in
  check Alcotest.bool "coverage non-decreasing" true (mono curve);
  check (Alcotest.float 1e-9) "coverage_at total equals coverage"
    (Fault_sim.coverage stats)
    (Fault_sim.coverage_at stats 1024);
  check Alcotest.int "undetected + detected = total" (Array.length faults)
    (Array.length (Fault_sim.undetected stats)
    + Array.fold_left (fun a fd -> if fd >= 0 then a + 1 else a) 0 stats.Fault_sim.first_detect)

(* [Generators.random_circuit] emits only AND/OR/NAND/NOR/XOR/NOT, so
   this builds its own netlists: every non-input kind appears (the n-ary
   ones first with a single fanin, then at random arities 1..4, repeated
   fanins allowed) and each gate reads random earlier nodes, constants
   included.  The first two-pin gate reads one node on both pins.  A node
   that drives nothing is an output, or dangling one time in four; a node
   that drives something is also an output one time in six; the last
   node is always an output. *)
let all_kinds_circuit rng =
  let n_in = 3 + Rng.int rng 3 in
  let pool =
    [| Gate.Const0; Gate.Const1; Gate.Buf; Gate.Not; Gate.And; Gate.Nand; Gate.Or; Gate.Nor;
       Gate.Xor; Gate.Xnor |]
  in
  let n = n_in + Array.length pool + 10 + Rng.int rng 10 in
  let kinds = Array.make n Gate.Input and fanins = Array.make n [||] in
  let drives = Array.make n false in
  let doubled = ref false in
  for i = n_in to n - 1 do
    let first_pass = i - n_in < Array.length pool in
    let k = if first_pass then pool.(i - n_in) else pool.(Rng.int rng (Array.length pool)) in
    let arity =
      match k with
      | Gate.Input | Gate.Const0 | Gate.Const1 -> 0
      | Gate.Buf | Gate.Not -> 1
      | Gate.And | Gate.Nand | Gate.Or | Gate.Nor | Gate.Xor | Gate.Xnor ->
        if first_pass then 1 else 1 + Rng.int rng 4
    in
    kinds.(i) <- k;
    fanins.(i) <- Array.init arity (fun _ -> Rng.int rng i);
    if arity = 2 && not !doubled then begin
      fanins.(i).(1) <- fanins.(i).(0);
      doubled := true
    end;
    Array.iter (fun j -> drives.(j) <- true) fanins.(i)
  done;
  let is_output i =
    i = n - 1 || if drives.(i) then Rng.int rng 6 = 0 else Rng.int rng 4 <> 0
  in
  let output_list = List.filter is_output (List.init (n - n_in) (( + ) n_in)) in
  let names = Array.init n (Printf.sprintf "n%d") in
  Netlist.make ~kinds ~fanins ~names ~output_list

(* Both polarities on every stem and on every pin of every gate. *)
let every_line_faults c =
  List.init (Netlist.size c) (fun g ->
      Fault.Stem g :: List.init (Array.length (Netlist.fanin c g)) (fun k -> Fault.Branch (g, k)))
  |> List.concat
  |> List.concat_map (fun site -> [ { Fault.site; stuck = false }; { Fault.site; stuck = true } ])
  |> Array.of_list

(* The faulty circuit's value of every node under one pattern. *)
let faulty_values c f pattern =
  let bad = Array.make (Netlist.size c) false in
  for i = 0 to Netlist.size c - 1 do
    let v =
      match Netlist.kind c i with
      | Gate.Input -> pattern.(Netlist.input_index c i)
      | k ->
        let args = Array.map (fun j -> bad.(j)) (Netlist.fanin c i) in
        (match f.Fault.site with
         | Fault.Branch (g, pin) when g = i -> args.(pin) <- f.Fault.stuck
         | Fault.Branch _ | Fault.Stem _ -> ());
        Gate.eval k args
    in
    bad.(i) <- (match f.Fault.site with Fault.Stem s when s = i -> f.Fault.stuck | _ -> v)
  done;
  bad

(* Whether [simulate], with and without dropping, at several (jobs,
   block_words), reproduces the single-pattern reference on [vectors]:
   first detections and detection counts.  With [cross_check] (the
   default), [Fault_sim.detects] must agree with the reference's output
   comparison on every pattern. *)
let agrees_with_reference ?(grid = [ (1, 1); (1, 4); (2, 4); (1, 16) ]) ?(cross_check = true) c
    faults vectors =
  let n_patterns = Array.length vectors in
  let outputs = Netlist.outputs c in
  let reference =
    Array.map
      (fun f ->
        Array.map
          (fun v ->
            let hit = Fault_sim.detects c f v in
            if cross_check then begin
              let good = Netlist.eval c v and bad = faulty_values c f v in
              if hit <> Array.exists (fun o -> good.(o) <> bad.(o)) outputs then
                Alcotest.failf "detects disagrees with the faulty evaluation of %s"
                  (Fault.to_string c f)
            end;
            hit)
          vectors)
      faults
  in
  let source () =
    let batches = ref (Pattern.of_vectors vectors) in
    fun () ->
      match !batches with
      | [] -> Alcotest.fail "source exhausted"
      | b :: rest ->
        batches := rest;
        b
  in
  let first fi =
    let rec go i = if i = n_patterns then -1 else if reference.(fi).(i) then i else go (i + 1) in
    go 0
  in
  (* With dropping, a fault is counted through the 64-pattern word that
     first detects it. *)
  let expected ~drop fi =
    let fd = first fi in
    let count = ref 0 in
    Array.iteri
      (fun i hit -> if hit && ((not drop) || i / 64 = fd / 64) then incr count)
      reference.(fi);
    (fd, !count)
  in
  List.for_all
    (fun (jobs, block_words) ->
      List.for_all
        (fun drop ->
          let s = Fault_sim.simulate ~jobs ~block_words ~drop c faults ~source:(source ()) ~n_patterns in
          Array.for_all Fun.id
            (Array.mapi
               (fun fi _ ->
                 let fd, count = expected ~drop fi in
                 s.Fault_sim.first_detect.(fi) = fd && s.Fault_sim.detect_count.(fi) = count)
               faults))
        [ false; true ])
    grid

(* Sparse weights: each input is 1 with a probability drawn from
   [0.02, 0.15], so most fault effects die inside their region or
   mid-cone and the kernel's restore path runs on most propagations. *)
let sparse_weights rng n = Array.init n (fun _ -> 0.02 +. (0.13 *. Rng.float rng))

let ppsfp_all_kinds_qcheck =
  QCheck.Test.make ~name:"ppsfp equals reference on every gate kind and pin" ~count:20
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let c = all_kinds_circuit rng in
      let n_in = Array.length (Netlist.inputs c) in
      let vectors = Array.init 150 (fun _ -> Array.init n_in (fun _ -> Rng.bool rng)) in
      let w = sparse_weights rng n_in in
      let sparse = Array.init 150 (fun _ -> Array.map (fun p -> Rng.float rng < p) w) in
      agrees_with_reference c (every_line_faults c) vectors
      && agrees_with_reference c (every_line_faults c) sparse)

(* Hand-built corners of the fanout-free-region decomposition: in the
   first netlist, q is read on both pins of r, the output p also feeds q,
   and d dangles with a constant in its region; in the second, e's
   effect dies at f (AND with Const0) inside the region of the output g,
   which also feeds t, Const1 feeds h, and u reads c on both pins.
   Every line's faults include the branch faults on each root gate. *)
let test_ppsfp_edge_netlists () =
  let build kinds fanins output_list =
    let names = Array.mapi (fun i _ -> Printf.sprintf "n%d" i) kinds in
    Netlist.make ~kinds ~fanins ~names ~output_list
  in
  let first =
    build
      Gate.[| Input; Input; Input; And; Or; Not; Nand; And; Buf; Const0; Or |]
      [| [||]; [||]; [||]; [| 0; 1 |]; [| 3; 2 |]; [| 4 |]; [| 5; 2 |]; [| 6; 6 |]; [| 7 |];
         [||]; [| 9; 0 |] |]
      [ 5; 8 ]
  and second =
    build
      Gate.[| Input; Input; Input; Const0; Const1; And; And; And; Or; Xnor; Nor |]
      [| [||]; [||]; [||]; [||]; [||]; [| 1; 2 |]; [| 5; 3 |]; [| 4; 0 |]; [| 6; 7 |];
         [| 8; 2 |]; [| 2; 2 |] |]
      [ 8; 9; 10 ]
  in
  let rng = Rng.create 4 in
  List.iteri
    (fun k c ->
      let vectors = Array.init 200 (fun _ -> Array.init 3 (fun _ -> Rng.bool rng)) in
      if not (agrees_with_reference c (every_line_faults c) vectors) then
        Alcotest.failf "netlist %d disagrees with the reference" k)
    [ first; second ]

(* Lane retirement.  A root flip stops carrying its difference in a
   lane once an output shows it there, and stops altogether once every
   lane it can matter in is decided, so a flip's walk is cut short in
   some lanes and whole blocks, and the next flip on the same workspace
   must find every row and queued flag clean.  Patterns are drawn with
   per-input weights (sparse, dense or equiprobable) so that whole
   blocks are decided by an early output, and with dropping the live
   regions thin out block by block.  The grid includes [jobs] 3: where
   the live set is large enough to shard (c6288ish:4's first block),
   each worker's workspace sees its own sequence of flips. *)
let retire_grid = [ (1, 1); (1, 4); (3, 1); (3, 4) ]

let weighted_vectors rng n_in n =
  let w =
    Array.init n_in (fun _ ->
        match Rng.int rng 3 with
        | 0 -> 0.02 +. (0.13 *. Rng.float rng)
        | 1 -> 0.85 +. (0.13 *. Rng.float rng)
        | _ -> 0.5)
  in
  Array.init n (fun _ -> Array.map (fun p -> Rng.float rng < p) w)

let ppsfp_drop_reference_qcheck =
  QCheck.Test.make ~name:"ppsfp with dropping equals the per-pattern reference" ~count:5
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let c =
        match seed mod 3 with
        | 0 -> Generators.c6288ish ~width:(3 + (seed / 3 mod 2)) ()
        | k -> Generators.random_circuit ~inputs:8 ~gates:(20 * (k + 1)) ~seed
      in
      let faults = Rt_fault.Collapse.collapsed_universe c in
      let n_in = Array.length (Netlist.inputs c) in
      agrees_with_reference ~grid:retire_grid ~cross_check:false c faults
        (weighted_vectors rng n_in 320))

(* A root [r] (fanout 2, with the faults of its input [a] in its
   region) reaches the early output [e] wherever [b] is 1, and
   otherwise only the late output [z], through a chain no other root
   walks.  The first 64 patterns hold [a] at 0 and [b] at 1, so at one
   word per block the first flip of [r] is decided at [e] with the chain
   still queued, and the region's faults that need [a] = 1 stay live
   into the later blocks, where they are seen only at [z] wherever [b]
   is 0: a queued flag left over from the early stop, or a chain row not
   restored, loses them. *)
let test_ppsfp_early_and_late_outputs () =
  let kinds = Gate.[| Input; Input; Input; Input; Not; And; And; Or; Not |]
  and fanins = [| [||]; [||]; [||]; [||]; [| 0 |]; [| 4; 1 |]; [| 4; 2 |]; [| 6; 3 |]; [| 7 |] |] in
  let names = Array.mapi (fun i _ -> Printf.sprintf "n%d" i) kinds in
  let c = Netlist.make ~kinds ~fanins ~names ~output_list:[ 5; 8 ] in
  let rng = Rng.create 11 in
  let vectors =
    Array.init 320 (fun i ->
        if i < 64 then [| false; true; Rng.bool rng; Rng.bool rng |]
        else Array.init 4 (fun _ -> Rng.bool rng))
  in
  if not (agrees_with_reference ~grid:retire_grid c (every_line_faults c) vectors) then
    Alcotest.fail "early/late output netlist disagrees with the reference"

(* The propagation kernel must not allocate per gate: losing one
   [Pattern.words] annotation turns every Bigarray read into a boxing
   [caml_ba_get_1] call, which lifts this measure above the bound.  What
   remains — per-block costs (pattern source, scheduling) and the serial
   replay's boxed popcounts, about 10 words per injection — stays well
   under it. *)
let test_kernel_allocation_free () =
  let c = Generators.c880ish () in
  let faults = Rt_fault.Collapse.collapsed_universe c in
  let n_inputs = Array.length (Netlist.inputs c) in
  let block_words = 4 and n_patterns = 2048 in
  let run () =
    let source = Pattern.equiprobable (Rng.create 9) ~n_inputs in
    ignore (Fault_sim.simulate ~jobs:1 ~block_words ~drop:false c faults ~source ~n_patterns)
  in
  run ();
  let before = Gc.minor_words () in
  run ();
  let words = Gc.minor_words () -. before in
  let injections = Array.length faults * (n_patterns / (64 * block_words)) in
  let per = words /. Float.of_int injections in
  (* 1.6 words measured (x86-64), all of it per-block bookkeeping.  The
     bound leaves 2.4 words of margin: a boxed int64 costs 3 words, so the
     replay boxing a detection word again (10.4 words before its bit
     tricks were inlined) fails it. *)
  if per > 4.0 then
    Alcotest.failf "%.1f minor words per fault-block injection (bound 4)" per

(* --- Replay bit tricks --------------------------------------------------------- *)

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
  check Alcotest.int "popcount 0" 0 (Fault_sim.popcount 0L);
  check Alcotest.int "popcount -1" 64 (Fault_sim.popcount (-1L));
  check Alcotest.int "popcount 1" 1 (Fault_sim.popcount 1L);
  check Alcotest.int "popcount msb" 1 (Fault_sim.popcount Int64.min_int);
  (* The helper this replaced looped forever on zero. *)
  check Alcotest.int "ctz 0 is total" 64 (Fault_sim.ctz 0L);
  check Alcotest.int "ctz 1" 0 (Fault_sim.ctz 1L);
  check Alcotest.int "ctz 12" 2 (Fault_sim.ctz 12L);
  check Alcotest.int "ctz msb" 63 (Fault_sim.ctz Int64.min_int)

let bits_qcheck =
  let word =
    QCheck.(
      map
        (fun (a, b) -> Int64.logxor (Int64.shift_left (Int64.of_int a) 32) (Int64.of_int b))
        (pair int int))
  in
  [ QCheck.Test.make ~name:"popcount matches bit loop" ~count:500 word
      (fun w -> Fault_sim.popcount w = popcount_ref w);
    QCheck.Test.make ~name:"ctz matches bit loop" ~count:500 word
      (fun w -> Fault_sim.ctz w = ctz_ref w);
    (* w land (-w) isolates the lowest set bit, which sits at ctz w. *)
    QCheck.Test.make ~name:"lowest_bit isolates ctz" ~count:500 word
      (fun w ->
        let lowest = Int64.logand w (Int64.neg w) in
        if Int64.equal w 0L then Fault_sim.ctz w = 64
        else lowest = Int64.shift_left 1L (Fault_sim.ctz w)) ]

(* --- Multicore sharding ------------------------------------------------------------ *)

let test_jobs_bit_identical () =
  (* Sharding faults across domains must not change a single stat: the
     per-fault detection words are independent and the bookkeeping replays
     serially, so jobs=4 is bit-identical to jobs=1 on the same seed. *)
  let c = Generators.c880ish () in
  let faults = Rt_fault.Collapse.collapsed_universe c in
  let n_inputs = Array.length (Netlist.inputs c) in
  let mk () =
    let rng = Rt_util.Rng.create 11 in
    Pattern.equiprobable rng ~n_inputs
  in
  List.iter
    (fun drop ->
      let s1 = Fault_sim.simulate ~jobs:1 ~drop c faults ~source:(mk ()) ~n_patterns:512 in
      let s4 = Fault_sim.simulate ~jobs:4 ~drop c faults ~source:(mk ()) ~n_patterns:512 in
      let tag = if drop then "drop" else "no-drop" in
      check (Alcotest.array Alcotest.int) (tag ^ " first_detect") s1.Fault_sim.first_detect
        s4.Fault_sim.first_detect;
      check (Alcotest.array Alcotest.int) (tag ^ " detect_count") s1.Fault_sim.detect_count
        s4.Fault_sim.detect_count;
      check Alcotest.int (tag ^ " patterns_run") s1.Fault_sim.patterns_run
        s4.Fault_sim.patterns_run)
    [ true; false ]

(* The acceptance property of the wide datapath: for every (jobs,
   block_words) combination the stats replay to the same bits as the
   one-word serial path — including patterns_run, whose early-exit
   accounting is the subtlest part of the word-serial replay. *)
let jobs_words_identity_qcheck =
  QCheck.Test.make ~name:"stats bit-identical across jobs x block-words" ~count:6
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c = Generators.random_circuit ~inputs:8 ~gates:60 ~seed in
      let faults = Rt_fault.Collapse.collapsed_universe c in
      let sparse = sparse_weights (Rng.create seed) 8 in
      let run ~weights ~jobs ~block_words ~drop =
        let rng = Rt_util.Rng.create (seed + 7) in
        let source = Pattern.weighted rng weights in
        Fault_sim.simulate ~jobs ~block_words ~drop c faults ~source ~n_patterns:1100
      in
      List.for_all
        (fun (weights, drop) ->
          let reference = run ~weights ~jobs:1 ~block_words:1 ~drop in
          List.for_all
            (fun jobs ->
              List.for_all
                (fun block_words ->
                  let s = run ~weights ~jobs ~block_words ~drop in
                  s.Fault_sim.first_detect = reference.Fault_sim.first_detect
                  && s.Fault_sim.detect_count = reference.Fault_sim.detect_count
                  && s.Fault_sim.patterns_run = reference.Fault_sim.patterns_run)
                [ 1; 4; 8; 16 ])
            [ 1; 2; 4 ])
        [ (Array.make 8 0.5, true); (Array.make 8 0.5, false); (sparse, true); (sparse, false) ])

(* --- Detect_mc --------------------------------------------------------------------- *)

let test_mc_estimates () =
  (* On a 2-input AND, output s-a-0 is detected by the single pattern 11:
     p = 0.25 under equiprobable patterns. *)
  let b = Rt_circuit.Builder.create () in
  let x = Rt_circuit.Builder.input b "x" in
  let y = Rt_circuit.Builder.input b "y" in
  let g = Rt_circuit.Builder.and2 b x y in
  Rt_circuit.Builder.output b ~name:"z" g;
  let c = Rt_circuit.Builder.finalize b in
  let f = [| { Rt_fault.Fault.site = Rt_fault.Fault.Stem g; stuck = false } |] in
  let est = Detect_mc.detection_probs c f ~weights:[| 0.5; 0.5 |] ~n_patterns:20_000 ~seed:3 in
  if Float.abs (est.(0) -. 0.25) > 0.02 then Alcotest.failf "mc estimate %.3f far from 0.25" est.(0)

let test_confidence_halfwidth () =
  let hw = Detect_mc.confidence_halfwidth ~p:0.5 ~n:10_000 in
  check Alcotest.bool "halfwidth sane" true (hw > 0.009 && hw < 0.011)

let () =
  let q = QCheck_alcotest.to_alcotest ~long:false in
  Alcotest.run "rt_sim"
    [ ( "pattern",
        [ Alcotest.test_case "of_vectors roundtrip" `Quick test_of_vectors_roundtrip;
          Alcotest.test_case "lane mask" `Quick test_lane_mask;
          Alcotest.test_case "take exact" `Quick test_take_exact;
          Alcotest.test_case "weighted statistics" `Quick test_weighted_statistics;
          Alcotest.test_case "fill_block truncation" `Quick test_fill_block_truncates;
          Alcotest.test_case "resolve_block_words policy" `Quick test_block_resolve ] );
      ("logic-sim", [ q logic_sim_vs_eval_qcheck; q wide_sim_vs_narrow_qcheck ]);
      ( "fault-sim",
        [ q ppsfp_vs_reference_qcheck;
          Alcotest.test_case "drop keeps first_detect" `Quick test_drop_consistency;
          Alcotest.test_case "coverage accounting" `Quick test_coverage_monotone;
          q ppsfp_all_kinds_qcheck;
          Alcotest.test_case "ppsfp edge netlists" `Quick test_ppsfp_edge_netlists;
          q ppsfp_drop_reference_qcheck;
          Alcotest.test_case "ppsfp early and late outputs" `Quick
            test_ppsfp_early_and_late_outputs;
          Alcotest.test_case "kernel allocation-free" `Quick test_kernel_allocation_free ] );
      ( "bits",
        Alcotest.test_case "edge cases" `Quick test_bits_edge_cases
        :: List.map (QCheck_alcotest.to_alcotest ~long:false) bits_qcheck );
      ( "multicore",
        [ Alcotest.test_case "jobs=4 stats bit-identical" `Quick test_jobs_bit_identical;
          q jobs_words_identity_qcheck ] );
      ( "monte-carlo",
        [ Alcotest.test_case "estimates p" `Quick test_mc_estimates;
          Alcotest.test_case "confidence halfwidth" `Quick test_confidence_halfwidth ] ) ]
