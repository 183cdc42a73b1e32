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
   [Pattern.block] of up to [W] 64-pattern words, and each fault is
   injected once per block, propagating all W words together through its
   fanout cone.  Detection bookkeeping (first_detect / detect_count /
   drop order) replays serially from the per-fault detection rows *word
   by word* — a fault detected in word [w] leaves the live set before
   word [w+1] is accounted, and a block's trailing words are not
   accounted once the live set empties — so the returned stats are
   bit-identical to the one-word path for every (jobs, block_words)
   combination.  The only W-dependence is source consumption: a block is
   filled before simulating, so when dropping empties the live set
   mid-block up to [W - 1] already-pulled batches go unused.  [jobs > 1]
   shards the per-fault work across pool domains (each with its own
   workspace) via grain-level work stealing; per-fault detection rows
   land in a shared table at fault-indexed rows, so scheduling never
   touches the replay. *)

(* Workspace reused across faults within a block; one per worker slot
   when the per-fault work is sharded with [jobs > 1].  Every row is an
   unboxed [Pattern.words] buffer, so the propagation kernel below
   allocates nothing per gate or per fault. *)
type ws = {
  c : Netlist.t;
  w : int;  (* lane words per block *)
  fval : Pattern.words;  (* node-major faulty values, size * w *)
  pin : Pattern.words;  (* one row: a branch fault's stuck pin value *)
  out : Pattern.words;  (* one row: scratch gate evaluation *)
  det : Pattern.words;  (* one row: the fault's detection words *)
  dirty : bool array;
  queued : bool array;
  touched : int array;  (* stack of dirty nodes, reset per fault *)
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

(* Store [ws.out] as the faulty row of [n], mark it dirty and queue its
   fanouts.  A node is committed at most once per fault: the site first,
   then each node the cursor reaches, and pushes only target larger ids. *)
let commit ws n =
  let o = n * ws.w in
  for k = 0 to ws.w - 1 do
    BA1.unsafe_set ws.fval (o + k) (BA1.unsafe_get ws.out k)
  done;
  ws.dirty.(n) <- true;
  ws.touched.(ws.n_touched) <- n;
  ws.n_touched <- ws.n_touched + 1;
  let fo = Netlist.fanout ws.c n in
  for i = 0 to Array.length fo - 1 do
    let r = fo.(i) in
    if not ws.queued.(r) then begin
      ws.queued.(r) <- true;
      if r > ws.hi then ws.hi <- r
    end
  done

(* Computes the per-word detection row for one fault on the current
   block into [ws.det].  [good] is the fault-free wide simulation,
   shared read-only across domains; [lanes.(k)] masks word [k]'s valid
   lanes.  The wide event frontier is the union of the per-word
   narrow frontiers (a node is re-evaluated if *any* word differs, and
   its stored faulty row is exact for every word), so each word's masked
   output differences — hence the stats replayed from them — equal the
   one-word computation exactly.

   Propagation walks an ascending cursor over node ids from the fault
   site to the largest queued id.  [Netlist.make] rejects any fanin id
   >= its node's id, so every push targets a larger id than the node
   being evaluated: the cursor visits each queued node once, after all
   its fanins are final, and clears its [queued] flag on the way. *)
let inject_and_propagate ws ~(good : Pattern.words) ~lanes fault =
  for i = 0 to ws.n_touched - 1 do
    ws.dirty.(ws.touched.(i)) <- false
  done;
  ws.n_touched <- 0;
  ws.hi <- -1;
  BA1.fill ws.det 0L;
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
  if out_differs ws good lanes site then begin
    commit ws site;
    let n = ref (site + 1) in
    while !n <= ws.hi do
      if ws.queued.(!n) then begin
        ws.queued.(!n) <- false;
        eval_gate ws good !n ~pin:(-1);
        if out_differs ws good lanes !n then commit ws !n
      end;
      incr n
    done;
    let outputs = Netlist.outputs ws.c in
    for i = 0 to Array.length outputs - 1 do
      let o = outputs.(i) in
      if ws.dirty.(o) then begin
        let r = o * ws.w in
        for k = 0 to ws.w - 1 do
          BA1.unsafe_set ws.det k
            (Int64.logor (BA1.unsafe_get ws.det k)
               (Int64.logand
                  (Int64.logxor (BA1.unsafe_get ws.fval (r + k)) (BA1.unsafe_get good (r + k)))
                  lanes.(k)))
        done
      end
    done
  end

let c_batches = Rt_obs.counter "ppsfp.batches"
let c_patterns = Rt_obs.counter "ppsfp.patterns"
let c_dropped = Rt_obs.counter "ppsfp.faults_dropped"
let h_batch = Rt_obs.histogram "ppsfp.batch_us"

(* Undetected-fault population after the latest batch; its final value is
   the run's undetected-fault count. *)
let g_live = Rt_obs.gauge "ppsfp.live_faults"

(* Sub-millisecond blocks are not worth parallel dispatch
   (Parallel.sweep also clamps to the core count); at ~2-10 us per fault
   propagation this threshold puts the crossover near half a millisecond
   of work. *)
let ppsfp_seq_below = 256

(* Schedule faults so consecutive ones feed the same primary-output
   cone: stable order by (nearest reachable output, site id).  A worker
   draining a contiguous slice then repeatedly propagates through
   overlapping gate ranges, keeping its workspace rows cache-warm.
   Stats are accumulated per fault index, so the schedule never affects
   results. *)
let cone_order c faults =
  let nearest = Cone.nearest_output c in
  let site f =
    match f.Fault.site with Fault.Stem n -> n | Fault.Branch (g, _) -> g
  in
  let nf = Array.length faults in
  let key = Array.map (fun f -> (nearest.(site f), site f)) faults in
  let order = Array.init nf Fun.id in
  Array.sort
    (fun a b ->
      let d = compare key.(a) key.(b) in
      if d <> 0 then d else compare a b)
    order;
  order

let lanes_of_block blk =
  Array.init blk.Pattern.words (fun k ->
      if k < blk.Pattern.filled then Pattern.word_mask blk.Pattern.counts.(k) else 0L)

(* Run one block's per-fault propagation for the first [todo] entries of
   [live], writing each fault's detection row into [table] at its
   fault-indexed row (disjoint rows, so sharding is race-free). *)
let propagate_block ~label ~jobs ~wss ~good ~lanes ~table ~live ~todo faults =
  let words = wss.(0).w in
  Rt_util.Parallel.sweep ~label ~seq_below:ppsfp_seq_below ~jobs ~n:todo
    (fun ~worker ~lo ~hi ->
      let ws = wss.(worker) in
      for p = lo to hi - 1 do
        let fi = live.(p) in
        inject_and_propagate ws ~good ~lanes faults.(fi);
        for k = 0 to words - 1 do
          BA1.unsafe_set table ((fi * words) + k) (BA1.unsafe_get ws.det k)
        done
      done)

let simulate ?jobs ?block_words ?(drop = true) c faults ~source ~n_patterns =
  let jobs = Rt_util.Parallel.resolve_jobs jobs in
  let words = Pattern.resolve_block_words block_words in
  let nf = Array.length faults in
  let first_detect = Array.make nf (-1) in
  let detect_count = Array.make nf 0 in
  let sim = Logic_sim.create_wide ~words c in
  let wss = Array.init jobs (fun _ -> make_ws ~words c) in
  let blk = Pattern.make_block ~n_inputs:(Array.length (Netlist.inputs c)) ~words in
  let table = row (nf * words) in
  let live = cone_order c faults in
  let n_live = ref nf in
  let base = ref 0 in
  Rt_obs.with_span ~cat:"sim" "fault_sim" @@ fun () ->
  while !base < n_patterns && (!n_live > 0 || not drop) do
    let t_batch = Rt_obs.span_begin () in
    Pattern.fill_block source blk ~needed:(n_patterns - !base);
    let lanes = lanes_of_block blk in
    Logic_sim.run_wide sim blk;
    let good = Logic_sim.wide_values sim in
    propagate_block ~label:"ppsfp" ~jobs ~wss ~good ~lanes ~table ~live ~todo:!n_live faults;
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

let simulate_with_responses ?jobs ?block_words ?(drop = false) c faults ~source ~n_patterns =
  let jobs = Rt_util.Parallel.resolve_jobs jobs in
  let words = Pattern.resolve_block_words block_words in
  let nf = Array.length faults in
  let first_detect = Array.make nf (-1) in
  let detect_count = Array.make nf 0 in
  let responses = Array.make nf [] in
  let sim = Logic_sim.create_wide ~words c in
  let wss = Array.init jobs (fun _ -> make_ws ~words c) in
  let blk = Pattern.make_block ~n_inputs:(Array.length (Netlist.inputs c)) ~words in
  let table = row (nf * words) in
  (* Per detecting fault the output-difference words must be captured
     before the workspace is reused for the next fault; rows are
     allocated only on detection, so the table stays sparse. *)
  let diffs = Array.make nf [||] in
  let outputs = Netlist.outputs c in
  let n_out = min 64 (Array.length outputs) in
  let live = cone_order c faults in
  let n_live = ref nf in
  let base = ref 0 in
  Rt_obs.with_span ~cat:"sim" "fault_sim.responses" @@ fun () ->
  while !base < n_patterns && (!n_live > 0 || not drop) do
    Pattern.fill_block source blk ~needed:(n_patterns - !base);
    let lanes = lanes_of_block blk in
    Logic_sim.run_wide sim blk;
    let good = Logic_sim.wide_values sim in
    Rt_util.Parallel.sweep ~label:"ppsfp.responses" ~seq_below:ppsfp_seq_below ~jobs ~n:!n_live
      (fun ~worker ~lo ~hi ->
        let ws = wss.(worker) in
        for p = lo to hi - 1 do
          let fi = live.(p) in
          inject_and_propagate ws ~good ~lanes faults.(fi);
          let any = ref false in
          for k = 0 to words - 1 do
            let d = BA1.unsafe_get ws.det k in
            BA1.unsafe_set table ((fi * words) + k) d;
            if d <> 0L then any := true
          done;
          diffs.(fi) <-
            (if not !any then [||]
             else
               Array.init (n_out * words) (fun i ->
                   let o = outputs.(i / words) and k = i mod words in
                   if ws.dirty.(o) then
                     Int64.logand
                       (Int64.logxor (BA1.unsafe_get ws.fval ((o * ws.w) + k)) (BA1.unsafe_get good ((o * ws.w) + k)))
                       lanes.(k)
                   else 0L))
        done);
    let n0 = !n_live in
    let alive = ref n0 in
    let processed = ref 0 in
    let w = ref 0 in
    while !w < blk.Pattern.filled && (!alive > 0 || not drop) do
      let cnt = blk.Pattern.counts.(!w) in
      for p = 0 to n0 - 1 do
        let fi = live.(p) in
        if not (drop && first_detect.(fi) >= 0) then begin
          let d = BA1.unsafe_get table ((fi * words) + !w) in
          if not (Int64.equal d 0L) then begin
            if first_detect.(fi) < 0 then
              first_detect.(fi) <- !base + !processed + Bits.ctz d;
            detect_count.(fi) <- detect_count.(fi) + Bits.popcount d;
            let row = diffs.(fi) in
            for lane = 0 to cnt - 1 do
              if Int64.logand (Int64.shift_right_logical d lane) 1L <> 0L then begin
                let dw = ref 0L in
                for k = 0 to n_out - 1 do
                  if
                    Int64.logand (Int64.shift_right_logical row.((k * words) + !w) lane) 1L <> 0L
                  then dw := Int64.logor !dw (Int64.shift_left 1L k)
                done;
                responses.(fi) <- (!base + !processed + lane, !dw) :: responses.(fi)
              end
            done;
            if drop then decr alive
          end
        end
      done;
      processed := !processed + cnt;
      incr w
    done;
    if drop then begin
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
    Rt_obs.gauge_set g_live (Float.of_int !n_live);
    base := !base + !processed
  done;
  let responses = Array.map List.rev responses in
  ({ faults; first_detect; detect_count; patterns_run = !base }, responses)

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
