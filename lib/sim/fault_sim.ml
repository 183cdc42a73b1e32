module Netlist = Rt_circuit.Netlist
module Gate = Rt_circuit.Gate
module Cone = Rt_circuit.Cone
module Fault = Rt_fault.Fault
module Bits = Rt_util.Bits
module BA1 = Bigarray.Array1

type stats = {
  faults : Fault.t array;
  first_detect : int array;
  detect_count : int array;
  patterns_run : int;
}

(* The datapath is W x 64-bit wide: each good-machine pass simulates a
   [Pattern.block] of up to [W] 64-pattern words, and all fault work
   handles the W words of a block together.  Per block, each live fault
   is propagated only up to the root of its fanout-free region, and a
   root that some fault's difference reaches is flipped and propagated
   to the outputs once (see "Fanout-free regions" below).  Detection
   bookkeeping (first_detect / detect_count / drop order) replays
   serially from the per-fault detection rows *word by word* — a fault
   detected in word [w] leaves the live set before word [w+1] is
   accounted, and a block's trailing words are not accounted once the
   live set empties — so the returned stats are bit-identical to the
   one-word path for every (jobs, block_words) combination.  The only
   W-dependence is source consumption: a block is filled before
   simulating, so when dropping empties the live set mid-block up to
   [W - 1] already-pulled batches go unused.  [jobs > 1] shards the
   per-fault and per-root work across pool domains (each with its own
   workspace) via grain-level work stealing; detection rows land in a
   shared table at fault-indexed rows, each written by one work item, so
   scheduling never touches the replay.

   Fanout-free regions.  A node with exactly one reader that is not a
   primary output belongs to its reader's region, whose root is a node
   with fanout <> 1 or an output ([Cone.ffr_roots]).  Every node a fault
   inside a region can change lies on its path to the root or beyond
   the root, so in each lane where the root differs, the faulty values
   beyond it are exactly those of flipping the root alone: the fault's
   output differences are "the root differs" AND "flipping the root
   changes that output", lane by lane. *)

(* Workspace reused across faults and roots within a block; one per
   worker slot when the work is sharded with [jobs > 1].  Every row is
   an unboxed [Pattern.words] buffer, so the propagation kernel below
   allocates nothing per gate, fault or root. *)
type ws = {
  c : Netlist.t;
  w : int;  (* lane words per block *)
  fval : Pattern.words;  (* node-major faulty values, size * w *)
  pin : Pattern.words;  (* one row: a branch fault's stuck pin value *)
  out : Pattern.words;  (* one row: scratch gate evaluation *)
  det : Pattern.words;  (* one row: the lane differences of the last call *)
  dirty : bool array;
  queued : bool array;
  touched : int array;  (* stack of dirty nodes, reset per propagation *)
  mutable n_touched : int;
  mutable hi : int;  (* largest queued id, -1 when none *)
}

let row len =
  let r = BA1.create Bigarray.int64 Bigarray.c_layout (max 1 len) in
  BA1.fill r 0L;
  r

let make_ws ~words c =
  let n = Netlist.size c in
  { c;
    w = words;
    fval = row (n * words);
    pin = row words;
    out = row words;
    det = row words;
    dirty = Array.make n false;
    queued = Array.make n false;
    touched = Array.make (max 1 n) 0;
    n_touched = 0;
    hi = -1 }

(* The row holding fanin [j] (node [s]) of the gate under evaluation: the
   stuck pin of a branch fault, the faulty row of a dirty fanin, or the
   good row.  Selecting the row, never the int64 word, keeps every read
   an unboxed Bigarray load. *)
let src_row ws (good : Pattern.words) ~pin j s : Pattern.words =
  if j = pin then ws.pin else if ws.dirty.(s) then ws.fval else good

let src_off ws ~pin j s = if j = pin then 0 else s * ws.w

(* Evaluate gate [g] into [ws.out], one word loop per fanin.  [pin] is
   the fanin index replaced by [ws.pin] (a branch fault), or -1. *)
let eval_gate ws (good : Pattern.words) g ~pin =
  let fi = Netlist.fanin ws.c g in
  let kind = Netlist.kind ws.c g in
  let w = ws.w and out = ws.out in
  match kind with
  | Gate.Input -> invalid_arg "Fault_sim: primary inputs have no gate function"
  | Gate.Const0 -> BA1.fill out 0L
  | Gate.Const1 -> BA1.fill out (-1L)
  | Gate.Buf | Gate.Not | Gate.And | Gate.Nand | Gate.Or | Gate.Nor | Gate.Xor | Gate.Xnor ->
    let r = src_row ws good ~pin 0 fi.(0) and o = src_off ws ~pin 0 fi.(0) in
    for k = 0 to w - 1 do
      BA1.unsafe_set out k (BA1.unsafe_get r (o + k))
    done;
    for j = 1 to Array.length fi - 1 do
      let r = src_row ws good ~pin j fi.(j) and o = src_off ws ~pin j fi.(j) in
      match kind with
      | Gate.And | Gate.Nand ->
        for k = 0 to w - 1 do
          BA1.unsafe_set out k (Int64.logand (BA1.unsafe_get out k) (BA1.unsafe_get r (o + k)))
        done
      | Gate.Or | Gate.Nor ->
        for k = 0 to w - 1 do
          BA1.unsafe_set out k (Int64.logor (BA1.unsafe_get out k) (BA1.unsafe_get r (o + k)))
        done
      | Gate.Xor | Gate.Xnor ->
        for k = 0 to w - 1 do
          BA1.unsafe_set out k (Int64.logxor (BA1.unsafe_get out k) (BA1.unsafe_get r (o + k)))
        done
      | Gate.Input | Gate.Const0 | Gate.Const1 | Gate.Buf | Gate.Not -> ()
    done;
    if Gate.inverting kind then
      for k = 0 to w - 1 do
        BA1.unsafe_set out k (Int64.lognot (BA1.unsafe_get out k))
      done

(* Whether [ws.out] differs from the good value of [n] in any valid lane. *)
let out_differs ws (good : Pattern.words) lanes n =
  let o = n * ws.w in
  let k = ref 0 in
  while
    !k < ws.w
    && Int64.logand
         (Int64.logxor (BA1.unsafe_get ws.out !k) (BA1.unsafe_get good (o + !k)))
         lanes.(!k)
       = 0L
  do
    incr k
  done;
  !k < ws.w

(* Store [ws.out] as the faulty row of [n], mark it dirty and, unless [n]
   is [stop], queue its fanouts.  A node is committed at most once per
   propagation: the site first, then each node the cursor reaches, and
   pushes only target larger ids. *)
let commit ws ~stop n =
  let o = n * ws.w in
  for k = 0 to ws.w - 1 do
    BA1.unsafe_set ws.fval (o + k) (BA1.unsafe_get ws.out k)
  done;
  ws.dirty.(n) <- true;
  ws.touched.(ws.n_touched) <- n;
  ws.n_touched <- ws.n_touched + 1;
  if n <> stop then begin
    let fo = Netlist.fanout ws.c n in
    for i = 0 to Array.length fo - 1 do
      let r = fo.(i) in
      if not ws.queued.(r) then begin
        ws.queued.(r) <- true;
        if r > ws.hi then ws.hi <- r
      end
    done
  end

(* Clear the previous propagation's dirty marks and the event frontier. *)
let reset ws =
  for i = 0 to ws.n_touched - 1 do
    ws.dirty.(ws.touched.(i)) <- false
  done;
  ws.n_touched <- 0;
  ws.hi <- -1

(* The one propagation kernel.  [ws.out] holds the faulty row of [site]
   on a reset workspace; its effect is propagated through the fanout of
   [site], stopping at node [stop] (whose fanouts are not queued), or
   reaching the outputs when [stop] is -1.  [good] is the fault-free
   wide simulation, shared read-only across domains; [lanes.(k)] masks
   word [k]'s valid lanes.  The wide event frontier is the union of the
   per-word narrow frontiers (a node is re-evaluated if *any* word
   differs, and its stored faulty row is exact for every word), so each
   word's masked differences — hence the stats replayed from them —
   equal the one-word computation exactly.

   Propagation walks an ascending cursor over node ids from the site to
   the largest queued id.  [Netlist.make] rejects any fanin id >= its
   node's id, so every push targets a larger id than the node being
   evaluated: the cursor visits each queued node once, after all its
   fanins are final, and clears its [queued] flag on the way. *)
let propagate ws ~(good : Pattern.words) ~lanes ~stop site =
  if out_differs ws good lanes site then begin
    commit ws ~stop site;
    let n = ref (site + 1) in
    while !n <= ws.hi do
      if ws.queued.(!n) then begin
        ws.queued.(!n) <- false;
        eval_gate ws good !n ~pin:(-1);
        if out_differs ws good lanes !n then commit ws ~stop !n
      end;
      incr n
    done
  end

(* OR into [ws.det] node [n]'s valid-lane differences, if it is dirty. *)
let or_diff ws (good : Pattern.words) lanes n =
  if ws.dirty.(n) then begin
    let r = n * ws.w in
    for k = 0 to ws.w - 1 do
      BA1.unsafe_set ws.det k
        (Int64.logor (BA1.unsafe_get ws.det k)
           (Int64.logand
              (Int64.logxor (BA1.unsafe_get ws.fval (r + k)) (BA1.unsafe_get good (r + k)))
              lanes.(k)))
    done
  end

let site_of f = match f.Fault.site with Fault.Stem n -> n | Fault.Branch (g, _) -> g

(* [ws.det] := the fault's valid-lane differences at its region's root:
   the fault is injected at its site and propagated no further than the
   root. *)
let local_diff ws ~root ~(good : Pattern.words) ~lanes fault =
  reset ws;
  let site =
    match fault.Fault.site with
    | Fault.Stem n ->
      BA1.fill ws.out (if fault.Fault.stuck then -1L else 0L);
      n
    | Fault.Branch (g, k) ->
      BA1.fill ws.pin (if fault.Fault.stuck then -1L else 0L);
      eval_gate ws good g ~pin:k;
      g
  in
  let r = root.(site) in
  propagate ws ~good ~lanes ~stop:r site;
  BA1.fill ws.det 0L;
  or_diff ws good lanes r

(* [ws.det] := the valid lanes in which flipping root [r] (injecting the
   complement of its good row) changes some primary output. *)
let flip_root ws ~(good : Pattern.words) ~lanes r =
  reset ws;
  let o = r * ws.w in
  for k = 0 to ws.w - 1 do
    BA1.unsafe_set ws.out k (Int64.lognot (BA1.unsafe_get good (o + k)))
  done;
  propagate ws ~good ~lanes ~stop:(-1) r;
  BA1.fill ws.det 0L;
  let outputs = Netlist.outputs ws.c in
  for i = 0 to Array.length outputs - 1 do
    or_diff ws good lanes outputs.(i)
  done

let c_batches = Rt_obs.counter "ppsfp.batches"
let c_patterns = Rt_obs.counter "ppsfp.patterns"
let c_dropped = Rt_obs.counter "ppsfp.faults_dropped"
let h_batch = Rt_obs.histogram "ppsfp.batch_us"

(* Undetected-fault population after the latest batch; its final value is
   the run's undetected-fault count. *)
let g_live = Rt_obs.gauge "ppsfp.live_faults"

(* Sub-millisecond sweeps are not worth parallel dispatch
   (Parallel.sweep also clamps to the core count); at ~1-10 us per fault
   or root propagation this threshold puts the crossover near half a
   millisecond of work. *)
let ppsfp_seq_below = 256

(* Schedule faults region by region: stable order by (root, site id).
   The faults of one region are then consecutive in the live set, which
   is what lets [propagate_block] flip each root once, and successive
   flips propagate through overlapping gate ranges.  Stats are
   accumulated per fault index, so the schedule never affects results. *)
let region_order ~root c faults =
  let size = Netlist.size c in
  let key fi =
    let s = site_of faults.(fi) in
    (root.(s) * size) + s
  in
  let order = Array.init (Array.length faults) Fun.id in
  Array.sort
    (fun a b ->
      let d = Int.compare (key a) (key b) in
      if d <> 0 then d else Int.compare a b)
    order;
  order

let lanes_of_block blk =
  Array.init blk.Pattern.words (fun k ->
      if k < blk.Pattern.filled then Pattern.word_mask blk.Pattern.counts.(k) else 0L)

(* Fault [fi]'s difference at its root into its fault-indexed [table]
   row. *)
let store_local ws ~root ~(good : Pattern.words) ~lanes ~(table : Pattern.words) faults fi =
  local_diff ws ~root ~good ~lanes faults.(fi);
  for k = 0 to ws.w - 1 do
    BA1.unsafe_set table ((fi * ws.w) + k) (BA1.unsafe_get ws.det k)
  done

(* Flip root [r] and mask with its observability the [table] rows of
   live entries [first, stop), the faults of its region. *)
let flip_region ws ~(good : Pattern.words) ~lanes ~(table : Pattern.words) ~live ~first ~stop r =
  let w = ws.w in
  flip_root ws ~good ~lanes r;
  for q = first to stop - 1 do
    let o = live.(q) * w in
    for k = 0 to w - 1 do
      BA1.unsafe_set table (o + k) (Int64.logand (BA1.unsafe_get table (o + k)) (BA1.unsafe_get ws.det k))
    done
  done

(* One block's fault work for the first [todo] entries of [live], in two
   pool sweeps, leaving each fault's detection row in its [table] row.
   The first writes each fault's difference at its root.  The second
   flips, once, each root that some fault's difference reaches, and
   masks the region's rows with the flip: the region-ordered live set
   holds a region's faults consecutively, so the entry that starts a
   region scans them and flips the root if any row is nonzero.  The
   flip is lazy: hard faults are rarely excited, and their propagation
   usually dies at the site.  Both sweeps write rows owned by one item
   (a fault, a region's first entry), so sharding is race-free and no
   row depends on scheduling. *)
let propagate_block ~jobs ~wss ~root ~good ~lanes ~(table : Pattern.words) ~live ~todo faults =
  Rt_util.Parallel.sweep ~label:"ppsfp" ~seq_below:ppsfp_seq_below ~jobs ~n:todo
    (fun ~worker ~lo ~hi ->
      let ws = wss.(worker) in
      for p = lo to hi - 1 do
        store_local ws ~root ~good ~lanes ~table faults live.(p)
      done);
  let words = wss.(0).w in
  let root_at p = root.(site_of faults.(live.(p))) in
  let excited p =
    let o = live.(p) * words in
    let k = ref 0 in
    while !k < words && Int64.equal (BA1.unsafe_get table (o + !k)) 0L do
      incr k
    done;
    !k < words
  in
  Rt_util.Parallel.sweep ~label:"ppsfp.roots" ~seq_below:ppsfp_seq_below ~jobs ~n:todo
    (fun ~worker ~lo ~hi ->
      for p = lo to hi - 1 do
        let r = root_at p in
        if p = 0 || root_at (p - 1) <> r then begin
          let stop = ref p in
          while !stop < todo && root_at !stop = r do
            incr stop
          done;
          let first = ref p in
          while !first < !stop && not (excited !first) do
            incr first
          done;
          (* Rows before [first] are zero and stay so. *)
          if !first < !stop then
            flip_region wss.(worker) ~good ~lanes ~table ~live ~first:!first ~stop:!stop r
        end
      done)

let simulate ?jobs ?block_words ?(drop = true) c faults ~source ~n_patterns =
  let jobs = Rt_util.Parallel.resolve_jobs jobs in
  let words = Pattern.resolve_block_words block_words in
  let nf = Array.length faults in
  let first_detect = Array.make nf (-1) in
  let detect_count = Array.make nf 0 in
  let sim = Logic_sim.create_wide ~words c in
  let wss = Array.init jobs (fun _ -> make_ws ~words c) in
  let root = Cone.ffr_roots c in
  let blk = Pattern.make_block ~n_inputs:(Array.length (Netlist.inputs c)) ~words in
  let table = row (nf * words) in
  let live = region_order ~root c faults in
  let n_live = ref nf in
  let base = ref 0 in
  Rt_obs.with_span ~cat:"sim" "fault_sim" @@ fun () ->
  while !base < n_patterns && (!n_live > 0 || not drop) do
    let t_batch = Rt_obs.span_begin () in
    Pattern.fill_block source blk ~needed:(n_patterns - !base);
    let lanes = lanes_of_block blk in
    Logic_sim.run_wide sim blk;
    let good = Logic_sim.wide_values sim in
    propagate_block ~jobs ~wss ~root ~good ~lanes ~table ~live ~todo:!n_live faults;
    (* Serial word-by-word replay: within a word, detections are lane-
       parallel; between words, drops take effect, exactly as if each
       word had been its own batch. *)
    let n0 = !n_live in
    let alive = ref n0 in
    let processed = ref 0 in
    let w = ref 0 in
    while !w < blk.Pattern.filled && (!alive > 0 || not drop) do
      for p = 0 to n0 - 1 do
        let fi = live.(p) in
        if not (drop && first_detect.(fi) >= 0) then begin
          let d = BA1.unsafe_get table ((fi * words) + !w) in
          if not (Int64.equal d 0L) then begin
            if first_detect.(fi) < 0 then
              first_detect.(fi) <- !base + !processed + Bits.ctz d;
            detect_count.(fi) <- detect_count.(fi) + Bits.popcount d;
            if drop then decr alive
          end
        end
      done;
      processed := !processed + blk.Pattern.counts.(!w);
      incr w
    done;
    if drop then begin
      (* Compact the live set in place, preserving cone order. *)
      let k = ref 0 in
      for p = 0 to n0 - 1 do
        let fi = live.(p) in
        if first_detect.(fi) < 0 then begin
          live.(!k) <- fi;
          incr k
        end
      done;
      n_live := !k
    end;
    Rt_obs.incr c_batches;
    Rt_obs.add c_patterns !processed;
    Rt_obs.add c_dropped (n0 - !n_live);
    Rt_obs.gauge_set g_live (Float.of_int !n_live);
    Rt_obs.span_end_h ~cat:"sim" "ppsfp.batch" h_batch t_batch;
    base := !base + !processed
  done;
  { faults; first_detect; detect_count; patterns_run = !base }

let detects c f pattern =
  let good = Netlist.eval c pattern in
  let n = Netlist.size c in
  let bad = Array.make n false in
  for i = 0 to n - 1 do
    let v =
      match Netlist.kind c i with
      | Gate.Input -> pattern.(Netlist.input_index c i)
      | k ->
        let fi = Netlist.fanin c i in
        let args = Array.map (fun j -> bad.(j)) fi in
        let args =
          match f.Fault.site with
          | Fault.Branch (g, pin) when g = i ->
            let args = Array.copy args in
            args.(pin) <- f.Fault.stuck;
            args
          | Fault.Branch _ | Fault.Stem _ -> args
        in
        Gate.eval k args
    in
    bad.(i) <- (match f.Fault.site with Fault.Stem s when s = i -> f.Fault.stuck | _ -> v)
  done;
  Array.exists (fun o -> good.(o) <> bad.(o)) (Netlist.outputs c)

let coverage s =
  let nf = Array.length s.faults in
  if nf = 0 then 1.0
  else begin
    let d = Array.fold_left (fun acc fd -> if fd >= 0 then acc + 1 else acc) 0 s.first_detect in
    Float.of_int d /. Float.of_int nf
  end

let coverage_at s k =
  let nf = Array.length s.faults in
  if nf = 0 then 1.0
  else begin
    let d =
      Array.fold_left (fun acc fd -> if fd >= 0 && fd < k then acc + 1 else acc) 0 s.first_detect
    in
    Float.of_int d /. Float.of_int nf
  end

let coverage_curve s ~points = List.map (fun k -> (k, coverage_at s k)) points

let undetected s =
  s.faults |> Array.to_list
  |> List.filteri (fun i _ -> s.first_detect.(i) < 0)
  |> Array.of_list
