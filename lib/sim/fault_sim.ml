module Netlist = Rt_circuit.Netlist
module Gate = Rt_circuit.Gate
module Cone = Rt_circuit.Cone
module Fault = Rt_fault.Fault
module BA1 = Bigarray.Array1

type stats = {
  faults : Fault.t array;
  first_detect : int array;
  detect_count : int array;
  patterns_run : int;
}

(* The datapath is up to W x 64-bit wide: each good-machine pass
   simulates a [Pattern.block] of [w] 64-pattern words, [w <= W =
   block_words], and all fault work handles the [w] words of a block
   together.  Per block, each live fault is propagated only up to the
   root of its fanout-free region, and a root that some fault's
   difference reaches is flipped and propagated to the outputs once (see
   "Fanout-free regions" below), only in the lanes no output has decided
   yet (see [flip_root]).  Detection bookkeeping (first_detect /
   detect_count / drop order) replays serially from the per-fault
   detection rows *word by word* — a fault detected in word [i] leaves
   the live set before word [i+1] is accounted, and a block's trailing
   words are not accounted once the live set empties — so the returned
   stats are bit-identical to the one-word path for every (jobs,
   block_words) combination and every block width.

   Block widths.  With dropping, most faults leave in the first few
   hundred patterns, so a wide first block carries all [W] words of
   every flip for faults that a single word would already have dropped.
   [simulate] therefore starts one word wide and doubles the width each
   block up to [W]; without dropping no fault leaves, and every block is
   [W] wide.  The kernel is compiled once, with rows strided by [W], and
   a narrower block works on the first [w] words of each row.  The only
   width-dependence is source consumption: a block is filled before
   simulating, so when dropping empties the live set mid-block up to
   [w - 1] already-pulled batches go unused.  [jobs > 1] shards the
   per-fault and per-root work across [Parallel.sweep]'s domains (each
   with its own workspace) in claimed chunks; detection rows land in a
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

(* The compiled netlist: [simulate] builds it once per call, and both
   the good machine and every faulty propagation run on it.  Its nodes
   are numbered by level ([Passes.level_order], the order the relevel
   pass gives a netlist), so outputs at low levels come early in the
   ascending walk of [flip_root] whatever the netlist's own numbering;
   [id] maps a netlist id to its kernel id, and every array below is
   indexed by kernel id.  [code.(n)]: bit 0 complements the result and
   [code lsr 1] is the operation — 0 a primary input, 1 a constant (0
   before the complement), 2 AND over the fanins (BUF and NOT are
   one-fanin ANDs), 3 OR, 4 XOR.  Node [n]'s fanins are the row offsets
   (fanin id * stride) [fi.(fi_start.(n)) .. fi.(fi_start.(n + 1) - 1)],
   in pin order; its readers are [fo.(fo_start.(n)) ..], one per reading
   pin.  Value buffers hold [n + 1] rows of [stride] words: row [n] is
   the stuck pin of a branch fault.  Every operation works on the first
   [w] words of each row, the current block's width, which the caller
   sets before each block and never changes while workers run. *)
type kernel = {
  stride : int;
  mutable w : int;
  n : int;
  id : int array;
  code : int array;
  fi_start : int array;
  fi : int array;
  fo_start : int array;
  fo : int array;
  is_out : bool array;
  inputs : int array;  (* block row [p] is kernel node [inputs.(p)] *)
  root : int array;  (* [Cone.ffr_roots] *)
}

let compile ~words c =
  let n = Netlist.size c in
  let order = Rt_circuit.Passes.level_order c in
  let id = Array.make n 0 in
  Array.iteri (fun k x -> id.(x) <- k) order;
  let code =
    Array.map
      (fun x ->
        match Netlist.kind c x with
        | Gate.Input -> 0
        | Gate.Const0 -> 2
        | Gate.Const1 -> 3
        | Gate.Buf | Gate.And -> 4
        | Gate.Not | Gate.Nand -> 5
        | Gate.Or -> 6
        | Gate.Nor -> 7
        | Gate.Xor -> 8
        | Gate.Xnor -> 9)
      order
  in
  let flat row scale =
    let start = Array.make (n + 1) 0 in
    for k = 0 to n - 1 do
      start.(k + 1) <- start.(k) + Array.length (row c order.(k))
    done;
    let a = Array.make start.(n) 0 in
    for k = 0 to n - 1 do
      Array.iteri (fun j x -> a.(start.(k) + j) <- id.(x) * scale) (row c order.(k))
    done;
    (start, a)
  in
  let fi_start, fi = flat Netlist.fanin words in
  let fo_start, fo = flat Netlist.fanout 1 in
  let root = Cone.ffr_roots c in
  { stride = words;
    w = words;
    n;
    id;
    code;
    fi_start;
    fi;
    fo_start;
    fo;
    is_out = Array.map (Netlist.is_output c) order;
    inputs = Array.map (fun x -> id.(x)) (Netlist.inputs c);
    root = Array.map (fun x -> id.(root.(x))) order }

let row len =
  let r = BA1.create Bigarray.int64 Bigarray.c_layout (max 1 len) in
  BA1.fill r 0L;
  r

let fill_row (v : Pattern.words) o w x =
  for i = 0 to w - 1 do
    BA1.unsafe_set v (o + i) x
  done

(* Evaluate gate [x] into its row of [v] from its fanins' rows of [v].
   The fanin at flat index [pin] reads the stuck-pin row instead (a
   branch fault), none when [pin] is -1.  A two-input gate, the common
   case, takes one pass with the complement folded in. *)
let eval k (v : Pattern.words) ~pin x =
  let w = k.w and o = x * k.stride in
  let a = Array.unsafe_get k.fi_start x and b = Array.unsafe_get k.fi_start (x + 1) in
  let code = Array.unsafe_get k.code x in
  let op = code lsr 1 and inv = if code land 1 = 1 then -1L else 0L in
  if op = 1 then fill_row v o w inv
  else if b - a = 2 then begin
    let s0 = if a = pin then k.n * k.stride else Array.unsafe_get k.fi a in
    let s1 = if a + 1 = pin then k.n * k.stride else Array.unsafe_get k.fi (a + 1) in
    if op = 2 then
      for i = 0 to w - 1 do
        BA1.unsafe_set v (o + i)
          (Int64.logxor (Int64.logand (BA1.unsafe_get v (s0 + i)) (BA1.unsafe_get v (s1 + i))) inv)
      done
    else if op = 3 then
      for i = 0 to w - 1 do
        BA1.unsafe_set v (o + i)
          (Int64.logxor (Int64.logor (BA1.unsafe_get v (s0 + i)) (BA1.unsafe_get v (s1 + i))) inv)
      done
    else
      for i = 0 to w - 1 do
        BA1.unsafe_set v (o + i)
          (Int64.logxor (Int64.logxor (BA1.unsafe_get v (s0 + i)) (BA1.unsafe_get v (s1 + i))) inv)
      done
  end
  else begin
    let s = if a = pin then k.n * k.stride else Array.unsafe_get k.fi a in
    for i = 0 to w - 1 do
      BA1.unsafe_set v (o + i) (BA1.unsafe_get v (s + i))
    done;
    for j = a + 1 to b - 1 do
      let s = if j = pin then k.n * k.stride else Array.unsafe_get k.fi j in
      if op = 2 then
        for i = 0 to w - 1 do
          BA1.unsafe_set v (o + i) (Int64.logand (BA1.unsafe_get v (o + i)) (BA1.unsafe_get v (s + i)))
        done
      else if op = 3 then
        for i = 0 to w - 1 do
          BA1.unsafe_set v (o + i) (Int64.logor (BA1.unsafe_get v (o + i)) (BA1.unsafe_get v (s + i)))
        done
      else
        for i = 0 to w - 1 do
          BA1.unsafe_set v (o + i) (Int64.logxor (BA1.unsafe_get v (o + i)) (BA1.unsafe_get v (s + i)))
        done
    done;
    if code land 1 = 1 then
      for i = 0 to w - 1 do
        BA1.unsafe_set v (o + i) (Int64.lognot (BA1.unsafe_get v (o + i)))
      done
  end

(* The good machine: the inputs' rows copied from the block's
   input-major words, then every gate in kernel order. *)
let run_good k (blk : Pattern.block) (good : Pattern.words) =
  let w = k.w and s = k.stride and bw = blk.Pattern.words and data = blk.Pattern.data in
  Array.iteri
    (fun p x ->
      for i = 0 to w - 1 do
        BA1.unsafe_set good ((x * s) + i) (BA1.unsafe_get data ((p * bw) + i))
      done)
    k.inputs;
  for x = 0 to k.n - 1 do
    if k.code.(x) <> 0 then eval k good ~pin:(-1) x
  done

let good_values c (blk : Pattern.block) =
  let words = blk.Pattern.words in
  let k = compile ~words c in
  let good = row ((k.n + 1) * words) in
  run_good k blk good;
  let out = row (k.n * words) in
  Array.iteri
    (fun x kx ->
      for i = 0 to words - 1 do
        BA1.unsafe_set out ((x * words) + i) (BA1.unsafe_get good ((kx * words) + i))
      done)
    k.id;
  out

(* Workspace reused across faults and roots within a block; one per
   worker slot when the work is sharded with [jobs > 1].  [v] holds the
   faulty machine's rows, loaded from the good block at the start of
   every block.  Invariant between propagations: every row holds the
   good value in every valid lane (the other lanes are masked wherever
   they are read), so a clean fanin is read with no test, and each
   propagation restores the rows it changed.  Every row is an unboxed
   [Pattern.words] buffer, so the kernel allocates nothing per gate,
   fault or root. *)
type ws = {
  v : Pattern.words;  (* node-major, (size + 1) * stride *)
  det : Pattern.words;  (* one row: the current flip's output differences *)
  rem : Pattern.words;  (* one row: the current flip's undecided lanes *)
  queued : bool array;
  touched : int array;  (* stack of committed rows of the current flip *)
  mutable n_touched : int;
  mutable hi : int;  (* largest queued id, -1 when none *)
}

let make_ws k =
  { v = row ((k.n + 1) * k.stride);
    det = row k.stride;
    rem = row k.stride;
    queued = Array.make k.n false;
    touched = Array.make (max 1 k.n) 0;
    n_touched = 0;
    hi = -1 }

(* Whether row [x] of [v] differs from the good row in a lane of
   [mask] (the valid lanes, or a flip's undecided ones). *)
let differs k (v : Pattern.words) (good : Pattern.words) (mask : Pattern.words) x =
  let w = k.w and o = x * k.stride in
  let i = ref 0 in
  while
    !i < w
    && Int64.logand
         (Int64.logxor (BA1.unsafe_get v (o + !i)) (BA1.unsafe_get good (o + !i)))
         (BA1.unsafe_get mask !i)
       = 0L
  do
    incr i
  done;
  !i < w

(* [eval] with [pin] -1, then [differs]: a two-input gate, the common
   case, does both in one pass over its words. *)
let eval_differs k (v : Pattern.words) (good : Pattern.words) (mask : Pattern.words) x =
  let a = Array.unsafe_get k.fi_start x in
  if Array.unsafe_get k.fi_start (x + 1) - a <> 2 then begin
    eval k v ~pin:(-1) x;
    differs k v good mask x
  end
  else begin
    let w = k.w and o = x * k.stride in
    let s0 = Array.unsafe_get k.fi a and s1 = Array.unsafe_get k.fi (a + 1) in
    let code = Array.unsafe_get k.code x in
    let op = code lsr 1 and inv = if code land 1 = 1 then -1L else 0L in
    let d = ref 0L in
    if op = 2 then
      for i = 0 to w - 1 do
        let r =
          Int64.logxor (Int64.logand (BA1.unsafe_get v (s0 + i)) (BA1.unsafe_get v (s1 + i))) inv
        in
        BA1.unsafe_set v (o + i) r;
        d :=
          Int64.logor !d
            (Int64.logand (Int64.logxor r (BA1.unsafe_get good (o + i))) (BA1.unsafe_get mask i))
      done
    else if op = 3 then
      for i = 0 to w - 1 do
        let r =
          Int64.logxor (Int64.logor (BA1.unsafe_get v (s0 + i)) (BA1.unsafe_get v (s1 + i))) inv
        in
        BA1.unsafe_set v (o + i) r;
        d :=
          Int64.logor !d
            (Int64.logand (Int64.logxor r (BA1.unsafe_get good (o + i))) (BA1.unsafe_get mask i))
      done
    else
      for i = 0 to w - 1 do
        let r =
          Int64.logxor (Int64.logxor (BA1.unsafe_get v (s0 + i)) (BA1.unsafe_get v (s1 + i))) inv
        in
        BA1.unsafe_set v (o + i) r;
        d :=
          Int64.logor !d
            (Int64.logand (Int64.logxor r (BA1.unsafe_get good (o + i))) (BA1.unsafe_get mask i))
      done;
    not (Int64.equal !d 0L)
  end

let restore k (v : Pattern.words) (good : Pattern.words) x =
  let o = x * k.stride in
  for i = 0 to k.w - 1 do
    BA1.unsafe_set v (o + i) (BA1.unsafe_get good (o + i))
  done

(* OR row [x]'s differences in the lanes of [mask] into [dst] at [d]. *)
let or_diff k (v : Pattern.words) (good : Pattern.words) (mask : Pattern.words) x
    (dst : Pattern.words) d =
  let o = x * k.stride in
  for i = 0 to k.w - 1 do
    BA1.unsafe_set dst (d + i)
      (Int64.logor (BA1.unsafe_get dst (d + i))
         (Int64.logand
            (Int64.logxor (BA1.unsafe_get v (o + i)) (BA1.unsafe_get good (o + i)))
            (BA1.unsafe_get mask i)))
  done

(* Keep row [x], which differs in an undecided lane: record it for the
   restore, and if it is a primary output, move the undecided lanes
   where it differs into [det].  An output differs in no undecided lane
   after that, so only a non-output queues its readers.  Returns whether
   a lane is still undecided. *)
let commit k ws (good : Pattern.words) x =
  ws.touched.(ws.n_touched) <- x;
  ws.n_touched <- ws.n_touched + 1;
  if k.is_out.(x) then begin
    or_diff k ws.v good ws.rem x ws.det 0;
    let left = ref 0L in
    for i = 0 to k.w - 1 do
      let r = Int64.logand (BA1.unsafe_get ws.rem i) (Int64.lognot (BA1.unsafe_get ws.det i)) in
      BA1.unsafe_set ws.rem i r;
      left := Int64.logor !left r
    done;
    not (Int64.equal !left 0L)
  end
  else begin
    for j = k.fo_start.(x) to k.fo_start.(x + 1) - 1 do
      let r = Array.unsafe_get k.fo j in
      if not ws.queued.(r) then begin
        ws.queued.(r) <- true;
        if r > ws.hi then ws.hi <- r
      end
    done;
    true
  end

(* [ws.det] := the lanes of [ws.rem] in which flipping root [r]
   (injecting the complement of its good row) changes some primary
   output.  The caller loads [ws.rem] with the lanes the flip can
   matter in — valid lanes where some fault of [r]'s region reaches
   [r] — and the flip leaves it empty or holding the lanes no output
   decided.  [good] is the good block, shared read-only across domains.
   The wide event frontier is the union of the per-word narrow
   frontiers (a node is kept if it differs in an undecided lane of
   *any* word), so each word's masked detections — hence the stats
   replayed from them — equal the one-word computation exactly.

   Propagation walks an ascending cursor over kernel ids from [r] to
   the largest queued id.  The kernel numbers every fanin below its
   reader, so every push targets a larger id than the node being
   evaluated: the cursor visits each queued node once, after all its
   fanins are final, and clears its [queued] flag on the way.

   Lanes retire as outputs decide them.  A lane leaves [rem] when a
   committed output differs in it, and [det] only grows, so a retired
   lane is already detected and no later value in it can change the
   result.  Only a node that differs in a lane still undecided is
   committed and queues its readers; an evaluated node that is not is
   restored at once.  In a lane that stays undecided to the end, every
   node that differs was therefore committed and propagated exactly as
   by a full walk, and a node whose fanins all hold the good value in
   that lane holds it too: by induction on the cursor, every row is
   exact in the lanes undecided when it is evaluated.  So [det] equals
   the full walk's output differences within the loaded lanes.  When no
   lane is left the walk stops: the queued flags between the cursor and
   [hi] are cleared, and the committed rows restored.  A flipped output
   root stops at once.  The kernel's level order puts low-level outputs
   early in the walk, so their lanes retire before the deeper cones. *)
let flip_root k ws ~(good : Pattern.words) r =
  let v = ws.v in
  BA1.fill ws.det 0L;
  let o = r * k.stride in
  for i = 0 to k.w - 1 do
    BA1.unsafe_set v (o + i) (Int64.lognot (BA1.unsafe_get good (o + i)))
  done;
  let live = ref (commit k ws good r) in
  let x = ref (r + 1) in
  while !live && !x <= ws.hi do
    if ws.queued.(!x) then begin
      ws.queued.(!x) <- false;
      if eval_differs k v good ws.rem !x then live := commit k ws good !x else restore k v good !x
    end;
    incr x
  done;
  for y = !x to ws.hi do
    ws.queued.(y) <- false
  done;
  for t = 0 to ws.n_touched - 1 do
    restore k v good ws.touched.(t)
  done;
  ws.n_touched <- 0;
  ws.hi <- -1

(* Fault [fi]'s valid-lane differences at its region's root into its
   fault-indexed [table] row.  The fault is injected at its site, and
   its effect climbs the region's single-reader chain: a node below the
   root has exactly one reader, on one pin, so the chain from the site
   to the root is the only path the fault can change, and every other
   fanin of a chain gate holds its good value.  The climb stops early
   where the difference dies (it is then zero at the root), and the rows
   it wrote are restored. *)
let store_local k ws ~(good : Pattern.words) ~lanes ~(table : Pattern.words) faults fi =
  let v = ws.v and w = k.w in
  let f = faults.(fi) in
  let stuck = if f.Fault.stuck then -1L else 0L in
  let site =
    match f.Fault.site with
    | Fault.Stem s ->
      let s = k.id.(s) in
      fill_row v (s * k.stride) w stuck;
      s
    | Fault.Branch (g, p) ->
      let g = k.id.(g) in
      fill_row v (k.n * k.stride) w stuck;
      eval k v ~pin:(k.fi_start.(g) + p) g;
      g
  in
  let r = k.root.(site) in
  let x = ref site in
  while !x <> r && differs k v good lanes !x do
    x := k.fo.(k.fo_start.(!x));
    eval k v ~pin:(-1) !x
  done;
  let d = fi * k.stride in
  fill_row table d w 0L;
  or_diff k v good lanes !x table d;
  let last = !x in
  x := site;
  restore k v good site;
  while !x <> last do
    x := k.fo.(k.fo_start.(!x));
    restore k v good !x
  done

let c_batches = Rt_obs.counter "ppsfp.batches"
let c_patterns = Rt_obs.counter "ppsfp.patterns"
let c_dropped = Rt_obs.counter "ppsfp.faults_dropped"

(* Sub-millisecond sweeps are not worth parallel dispatch
   (Parallel.sweep also clamps to the core count); at ~1-10 us per fault
   or root propagation this threshold puts the crossover near half a
   millisecond of work. *)
let ppsfp_seq_below = 256

(* Fault [f]'s region root, as a kernel id. *)
let root_of k f =
  let site = match f.Fault.site with Fault.Stem n -> n | Fault.Branch (g, _) -> g in
  k.root.(k.id.(site))

(* Schedule faults region by region: a stable counting sort by root
   id.  The faults of one region are then consecutive in the live set,
   which is what lets [propagate_block] flip each root once, and
   successive flips propagate through overlapping gate ranges.  Stats
   are accumulated per fault index, so the schedule never affects
   results. *)
let region_order k faults =
  let start = Array.make (k.n + 1) 0 in
  Array.iter (fun f -> start.(root_of k f + 1) <- start.(root_of k f + 1) + 1) faults;
  for i = 1 to k.n do
    start.(i) <- start.(i) + start.(i - 1)
  done;
  let order = Array.make (Array.length faults) 0 in
  Array.iteri
    (fun fi f ->
      let r = root_of k f in
      order.(start.(r)) <- fi;
      start.(r) <- start.(r) + 1)
    faults;
  order

(* Flip root [r] and mask with its observability the [table] rows of
   live entries [first, stop), the faults of its region.  The flip's
   undecided lanes start as the OR of those rows (already masked to the
   valid lanes by [store_local]): no other lane can reach a row. *)
let flip_region k ws ~(good : Pattern.words) ~(table : Pattern.words) ~live ~first ~stop r =
  let w = k.w and s = k.stride in
  BA1.fill ws.rem 0L;
  for q = first to stop - 1 do
    let o = live.(q) * s in
    for i = 0 to w - 1 do
      BA1.unsafe_set ws.rem i (Int64.logor (BA1.unsafe_get ws.rem i) (BA1.unsafe_get table (o + i)))
    done
  done;
  flip_root k ws ~good r;
  for q = first to stop - 1 do
    let o = live.(q) * s in
    for i = 0 to w - 1 do
      BA1.unsafe_set table (o + i) (Int64.logand (BA1.unsafe_get table (o + i)) (BA1.unsafe_get ws.det i))
    done
  done

(* One block's fault work for the first [todo] entries of [live], in two
   sweeps, leaving each fault's detection row in its [table] row.
   The first writes each fault's difference at its root.  The second
   flips, once, each root that some fault's difference reaches, and
   masks the region's rows with the flip: the region-ordered live set
   holds a region's faults consecutively, so the entry that starts a
   region scans them and flips the root if any row is nonzero.  The
   flip is lazy: hard faults are rarely excited, and their propagation
   usually dies at the site.  Both sweeps write rows owned by one item
   (a fault, a region's first entry), so sharding is race-free and no
   row depends on scheduling. *)
let propagate_block k ~jobs ~wss ~good ~lanes ~(table : Pattern.words) ~live ~todo faults =
  Rt_util.Parallel.sweep ~label:"ppsfp" ~seq_below:ppsfp_seq_below ~jobs ~n:todo
    (fun ~worker ~lo ~hi ->
      let ws = wss.(worker) in
      for p = lo to hi - 1 do
        store_local k ws ~good ~lanes ~table faults live.(p)
      done);
  let w = k.w and s = k.stride in
  let root_at p = root_of k faults.(live.(p)) in
  let excited p =
    let o = live.(p) * s in
    let i = ref 0 in
    while !i < w && Int64.equal (BA1.unsafe_get table (o + !i)) 0L do
      incr i
    done;
    !i < w
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
            flip_region k wss.(worker) ~good ~table ~live ~first:!first ~stop:!stop r
        end
      done)

(* Word bit tricks for the replay, branch-free and total ([ctz 0L] = 64;
   the looping lowest-lane helper they replaced never returned on 0L).
   They live here, inlined into the replay, because under dune's -opaque
   dev profile a call to another module passes the int64 word boxed. *)
let[@inline] popcount w =
  let open Int64 in
  let x = sub w (logand (shift_right_logical w 1) 0x5555555555555555L) in
  let x = add (logand x 0x3333333333333333L) (logand (shift_right_logical x 2) 0x3333333333333333L) in
  let x = logand (add x (shift_right_logical x 4)) 0x0F0F0F0F0F0F0F0FL in
  to_int (shift_right_logical (mul x 0x0101010101010101L) 56)

(* The lowest set bit's index is the popcount of the mask of all strictly
   lower bit positions. *)
let[@inline] ctz w =
  if Int64.equal w 0L then 64 else popcount (Int64.sub (Int64.logand w (Int64.neg w)) 1L)

let simulate ?jobs ?block_words ?(drop = true) c faults ~source ~n_patterns =
  let jobs = Rt_util.Parallel.resolve_jobs jobs in
  let words = Pattern.resolve_block_words block_words in
  let nf = Array.length faults in
  let first_detect = Array.make nf (-1) in
  let detect_count = Array.make nf 0 in
  let k = compile ~words c in
  let good = row ((k.n + 1) * words) in
  let wss = Array.init jobs (fun _ -> make_ws k) in
  let blk = Pattern.make_block ~n_inputs:(Array.length (Netlist.inputs c)) ~words in
  let table = row (nf * words) in
  let lanes = row words in
  let live = region_order k faults in
  let n_live = ref nf in
  let base = ref 0 in
  (* The next block's width: the ramp of the header comment. *)
  let width = ref (if drop then 1 else words) in
  Rt_obs.with_span ~cat:"sim" "fault_sim" @@ fun () ->
  while !base < n_patterns && (!n_live > 0 || not drop) do
    let t_batch = Rt_obs.span_begin () in
    Pattern.fill_block ~words:!width source blk ~needed:(n_patterns - !base);
    width := min words (2 * !width);
    let filled = blk.Pattern.filled in
    k.w <- filled;
    for i = 0 to filled - 1 do
      BA1.unsafe_set lanes i (Pattern.word_mask blk.Pattern.counts.(i))
    done;
    run_good k blk good;
    Array.iter (fun ws -> BA1.blit good ws.v) wss;
    propagate_block k ~jobs ~wss ~good ~lanes ~table ~live ~todo:!n_live faults;
    (* Serial word-by-word replay: within a word, detections are lane-
       parallel; between words, drops take effect, exactly as if each
       word had been its own batch. *)
    let n0 = !n_live in
    let alive = ref n0 in
    let processed = ref 0 in
    let w = ref 0 in
    while !w < filled && (!alive > 0 || not drop) do
      for p = 0 to n0 - 1 do
        let fi = live.(p) in
        if not (drop && first_detect.(fi) >= 0) then begin
          let d = BA1.unsafe_get table ((fi * words) + !w) in
          if not (Int64.equal d 0L) then begin
            if first_detect.(fi) < 0 then
              first_detect.(fi) <- !base + !processed + ctz d;
            detect_count.(fi) <- detect_count.(fi) + popcount d;
            if drop then decr alive
          end
        end
      done;
      processed := !processed + blk.Pattern.counts.(!w);
      incr w
    done;
    if drop then begin
      (* Compact the live set in place, preserving region order. *)
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
    Rt_obs.span_end ~cat:"sim" "ppsfp.batch" t_batch;
    base := !base + !processed
  done;
  { faults; first_detect; detect_count; patterns_run = !base }

(* STAFAN's counts on the compiled good machine.  Per gate pin, the
   lanes where the gate's output is sensitive to that pin are the AND of
   its other fanin rows: complemented for OR/NOR, none for the XOR
   family (all lanes), and BUF/NOT are one-fanin ANDs, whose empty AND is
   all lanes too.  Every word is masked to its valid lanes, and the
   source is pulled exactly as a one-word loop would pull it.  The
   counts are kept by netlist id, read from each node's kernel row. *)
type counts = {
  n_patterns : int;
  ones : int array;
  sens : int array array;
}

let count c ~source ~n_patterns =
  let words = Pattern.resolve_block_words None in
  let k = compile ~words c in
  let good = row ((k.n + 1) * words) in
  let blk = Pattern.make_block ~n_inputs:(Array.length k.inputs) ~words in
  let ones = Array.make k.n 0 in
  let sens =
    Array.init k.n (fun x ->
        let kx = k.id.(x) in
        if k.code.(kx) lsr 1 <= 1 then [||] else Array.make (k.fi_start.(kx + 1) - k.fi_start.(kx)) 0)
  in
  let base = ref 0 in
  while !base < n_patterns do
    Pattern.fill_block source blk ~needed:(n_patterns - !base);
    run_good k blk good;
    for i = 0 to blk.Pattern.filled - 1 do
      let m = Pattern.word_mask blk.Pattern.counts.(i) in
      for x = 0 to k.n - 1 do
        let kx = k.id.(x) in
        let s = sens.(x) and a = k.fi_start.(kx) and op = k.code.(kx) lsr 1 in
        ones.(x) <- ones.(x) + popcount (Int64.logand (BA1.unsafe_get good ((kx * words) + i)) m);
        for p = 0 to Array.length s - 1 do
          let lanes = ref m in
          if op <> 4 then
            for j = a to a + Array.length s - 1 do
              if j <> a + p then begin
                let y = BA1.unsafe_get good (k.fi.(j) + i) in
                lanes := Int64.logand !lanes (if op = 2 then y else Int64.lognot y)
              end
            done;
          s.(p) <- s.(p) + popcount !lanes
        done
      done
    done;
    base := !base + blk.Pattern.total
  done;
  { n_patterns; ones; sens }

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
