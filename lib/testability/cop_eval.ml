(* COP evaluation: the activation x observability estimate, in two
   forms — a plan-restricted sweep (a full query is the all-faults plan),
   and an incremental state that caches a base point's signal
   probabilities / observabilities and re-evaluates only a flipped input's
   damage cone.

   Both forms run one compiled kernel.  A circuit's gates are compiled
   once per [cones] value, on first use, into flat arrays: a gate code per
   node, every fanin row in one int array, and every node's observability
   edges — the (reader, pin) pairs that read it — packed one int each in
   one int array.  A plan's faults are compiled into a fault table (source
   node, site, pin, stuck value) cached the way the plan's cone cut is.
   The sweeps, the damage-cone patch and the per-fault fill all run the
   three per-node kernels below over these tables.  STAFAN's measured
   fold ([probs_counted]) walks the same edge and fault tables with
   counted sensitizations in place of [sensitization].

   Bit-identity invariant (what makes the incremental path safe for the
   optimizer): after any [eval] / [cofactor_pair], the returned vector is
   bit-for-bit what [probs_plan] computes from scratch at the same
   point.  The argument: a masked node outside fanout*(i) has no path
   from input i (sp_mask is fanin-closed, so any such path would be
   entirely masked), hence its cached value already equals the from-
   scratch value; a node inside the cone is recomputed in ascending
   (topological, therefore level) order by the sweep's own kernel over
   the same fanin reads.  The observability side re-runs the sweep's
   observability kernel in descending order over exactly the nodes whose
   kernel reads a changed value: a reader's observability, or a side
   pin's signal probability.  The kernels allocate nothing per node.

   The cones depend only on the circuit and the plan's masks, so each
   input's full-circuit cone is built once per oracle ([cones], shared by
   every state the oracle holds) and cut down to a plan's masks by a
   byte scan when the plan changes. *)

module Netlist = Rt_circuit.Netlist
module Gate = Rt_circuit.Gate
module Fault = Rt_fault.Fault
module Parallel = Rt_util.Parallel

(* --- The compiled circuit ---------------------------------------------------- *)

type table = {
  kind : Gate.kind array;  (* the gate code of every node *)
  output : Bytes.t;  (* '\001' at a primary output *)
  fanin_at : int array;  (* node g's fanins are fanin.(fanin_at.(g) .. fanin_at.(g+1) - 1) *)
  fanin : int array;
  edge_at : int array;  (* node g's edges are edge.(edge_at.(g) .. edge_at.(g+1) - 1) *)
  edge : int array;  (* (reader lsl pin_bits) lor pin, in the observability fold's order *)
  pin_bits : int;
}

(* The observability edges of node g are listed in the order its fold
   meets them: its distinct readers last to first, and within one reader
   its pins last to first, one edge per pin that reads g.  A reader that
   reads g on several pins is listed once per pin in [Netlist.fanout g],
   in adjacent slots, so only the first slot of such a run is visited.
   The order is part of the result: 1 - prod (1 - o_b) is not
   associative in floating point, and this is the order the pinned
   digests and recorded tables were produced with.  Two passes — count,
   then fill — so no list is built. *)
let compile c =
  let n = Netlist.size c in
  let fanin_at = Array.make (n + 1) 0 in
  let max_arity = ref 1 in
  for g = 0 to n - 1 do
    let a = Array.length (Netlist.fanin c g) in
    if a > !max_arity then max_arity := a;
    fanin_at.(g + 1) <- fanin_at.(g) + a
  done;
  let fanin = Array.make fanin_at.(n) 0 in
  for g = 0 to n - 1 do
    let fi = Netlist.fanin c g in
    Array.blit fi 0 fanin fanin_at.(g) (Array.length fi)
  done;
  let pin_bits = ref 0 in
  while 1 lsl !pin_bits < !max_arity do
    incr pin_bits
  done;
  let pin_bits = !pin_bits in
  let edges_of g emit =
    let readers = Netlist.fanout c g in
    for ri = Array.length readers - 1 downto 0 do
      let r = readers.(ri) in
      if ri = Array.length readers - 1 || readers.(ri + 1) <> r then
        for j = fanin_at.(r + 1) - 1 downto fanin_at.(r) do
          if fanin.(j) = g then emit ((r lsl pin_bits) lor (j - fanin_at.(r)))
        done
    done
  in
  let edge_at = Array.make (n + 1) 0 in
  for g = 0 to n - 1 do
    let count = ref 0 in
    edges_of g (fun _ -> incr count);
    edge_at.(g + 1) <- edge_at.(g) + !count
  done;
  let edge = Array.make edge_at.(n) 0 in
  for g = 0 to n - 1 do
    let at = ref edge_at.(g) in
    edges_of g (fun e ->
        edge.(!at) <- e;
        incr at)
  done;
  { kind = Array.init n (Netlist.kind c);
    output = Bytes.init n (fun g -> if Netlist.is_output c g then '\001' else '\000');
    fanin_at;
    fanin;
    edge_at;
    edge;
    pin_bits }

(* --- The per-node kernels ------------------------------------------------------

   Each stores into the caller's array or returns a float that stays
   unboxed: all three are inlined into the loops below, and dune's
   default profile compiles with -opaque, where a float returned from a
   call across modules would be boxed. *)

(* The arithmetical embedding of gate g under the independence
   assumption, folded in pin order: the product from 1.0 (AND/NAND), the
   complement product from 1.0 (OR/NOR), XOR pairwise from 0.0
   (p <- a(1-b) + b(1-a), exact for independent fanins).  Input nodes
   are set by the callers. *)
let[@inline] prod (sp : float array) (fanin : int array) lo hi =
  let acc = ref 1.0 in
  for j = lo to hi - 1 do
    acc := !acc *. sp.(fanin.(j))
  done;
  !acc

let[@inline] prod_compl (sp : float array) (fanin : int array) lo hi =
  let acc = ref 1.0 in
  for j = lo to hi - 1 do
    acc := !acc *. (1.0 -. sp.(fanin.(j)))
  done;
  !acc

let[@inline] xor (sp : float array) (fanin : int array) lo hi =
  let acc = ref 0.0 in
  for j = lo to hi - 1 do
    let b = sp.(fanin.(j)) in
    acc := (!acc *. (1.0 -. b)) +. (b *. (1.0 -. !acc))
  done;
  !acc

let[@inline] set_sp t (sp : float array) g =
  let fanin = t.fanin in
  let lo = t.fanin_at.(g) and hi = t.fanin_at.(g + 1) in
  sp.(g) <-
    (match t.kind.(g) with
     | Gate.Input -> invalid_arg "Cop_eval: an input has no gate function"
     | Gate.Const0 -> 0.0
     | Gate.Const1 -> 1.0
     | Gate.Buf -> sp.(fanin.(lo))
     | Gate.Not -> 1.0 -. sp.(fanin.(lo))
     | Gate.And -> prod sp fanin lo hi
     | Gate.Nand -> 1.0 -. prod sp fanin lo hi
     | Gate.Or -> 1.0 -. prod_compl sp fanin lo hi
     | Gate.Nor -> prod_compl sp fanin lo hi
     | Gate.Xor -> xor sp fanin lo hi
     | Gate.Xnor -> 1.0 -. xor sp fanin lo hi)

(* Probability that gate r's output is sensitive to its pin k: every
   other pin at its non-controlling value, 1 for the BUF/NOT/XOR family. *)
let[@inline] sensitization t (sp : float array) r k =
  let fanin = t.fanin in
  let lo = t.fanin_at.(r) and hi = t.fanin_at.(r + 1) in
  match t.kind.(r) with
  | Gate.Input | Gate.Const0 | Gate.Const1 -> invalid_arg "Cop_eval: a pin of a non-gate"
  | Gate.Buf | Gate.Not | Gate.Xor | Gate.Xnor -> 1.0
  | Gate.And | Gate.Nand ->
    let acc = ref 1.0 in
    for j = lo to hi - 1 do
      if j <> lo + k then acc := !acc *. sp.(fanin.(j))
    done;
    !acc
  | Gate.Or | Gate.Nor ->
    let acc = ref 1.0 in
    for j = lo to hi - 1 do
      if j <> lo + k then acc := !acc *. (1.0 -. sp.(fanin.(j)))
    done;
    !acc

(* The stem fold: node g's branch observabilities o_b recombine as
   1 - prod (1 - o_b), the product running from 0.0 at a primary output
   (observed outright) and from 1.0 elsewhere (STAFAN's rule; under
   reconvergent fanout an estimate that can overestimate).  COP's and
   STAFAN's kernels both fold through these two steps, in the edge order
   [compile] fixes. *)
let[@inline] stem_start t g = if Bytes.get t.output g <> '\000' then 0.0 else 1.0
let[@inline] stem_step acc o = acc *. (1.0 -. o)

(* Node g's observability from its readers' observabilities: each edge
   (r, k) is a branch observable with [sensitization r k * obs r]. *)
let[@inline] set_obs t (sp : float array) (obs : float array) g =
  let edge = t.edge and pin_bits = t.pin_bits in
  let pin_mask = (1 lsl pin_bits) - 1 in
  let acc = ref (stem_start t g) in
  for e = t.edge_at.(g) to t.edge_at.(g + 1) - 1 do
    let r = edge.(e) lsr pin_bits in
    let o = sensitization t sp r (edge.(e) land pin_mask) *. obs.(r) in
    acc := stem_step !acc o
  done;
  obs.(g) <- 1.0 -. !acc

(* STAFAN's observability of node g: the same edges and fold, each branch
   observable with its measured sensitization [sens r k / total] in place
   of COP's product. *)
let[@inline] set_obs_counted t (sens : int array array) ~total (obs : float array) g =
  let edge = t.edge and pin_bits = t.pin_bits in
  let pin_mask = (1 lsl pin_bits) - 1 in
  let acc = ref (stem_start t g) in
  for e = t.edge_at.(g) to t.edge_at.(g + 1) - 1 do
    let r = edge.(e) lsr pin_bits in
    let o = Float.of_int sens.(r).(edge.(e) land pin_mask) /. total *. obs.(r) in
    acc := stem_step !acc o
  done;
  obs.(g) <- 1.0 -. !acc

(* --- Sweeps -------------------------------------------------------------------- *)

let sweep_into c t ~sp_mask ~obs_mask x sp obs =
  let n = Array.length t.kind in
  for g = 0 to n - 1 do
    if sp_mask.(g) then
      match t.kind.(g) with
      | Gate.Input -> sp.(g) <- x.(Netlist.input_index c g)
      | _ -> set_sp t sp g
  done;
  for g = n - 1 downto 0 do
    if obs_mask.(g) then set_obs t sp obs g
  done

(* --- The compiled faults ------------------------------------------------------- *)

type faults = {
  src : int array;  (* the node driving the faulted line *)
  site : int array;  (* the stem's node, or the gate a branch enters *)
  pin : int array;  (* the branch's pin, -1 for a stem *)
  stuck : bool array;
}

let compile_faults c plan =
  let sel = Oracle.selected plan in
  { src = Array.map (fun f -> Fault.source f c) sel;
    site =
      Array.map
        (fun f -> match f.Fault.site with Fault.Stem n -> n | Fault.Branch (g, _) -> g)
        sel;
    pin =
      Array.map
        (fun f -> match f.Fault.site with Fault.Stem _ -> -1 | Fault.Branch (_, k) -> k)
        sel;
    stuck = Array.map (fun f -> f.Fault.stuck) sel }

(* p_f = activation x observability of the faulted line; a branch's line
   is observable through its pin's sensitization. *)
let[@inline] fault_prob t (sp : float array) (obs : float array) ~src ~site ~pin ~stuck =
  let act = if stuck then 1.0 -. sp.(src) else sp.(src) in
  if pin < 0 then act *. obs.(site) else act *. (sensitization t sp site pin *. obs.(site))

(* [fill lo hi] for slices of [0, n).  The per-fault work is
   sub-microsecond: only worth domains on large universes. *)
let over_faults ~jobs n fill =
  Parallel.sweep ~label:"cop.fill" ~seq_below:4096 ~jobs ~n (fun ~worker:_ ~lo ~hi -> fill lo hi)

let fill ~jobs t fs ~sp ~obs out =
  over_faults ~jobs (Array.length fs.src) (fun lo hi ->
      for i = lo to hi - 1 do
        out.(i) <-
          fault_prob t sp obs ~src:fs.src.(i) ~site:fs.site.(i) ~pin:fs.pin.(i)
            ~stuck:fs.stuck.(i)
      done)

(* --- Damage cones and the compiled state they share ----------------------------- *)

(* Flag bits of a full-circuit cone byte. *)
let sp_bit = 1
let obs_bit = 2

type cones = {
  circuit : Netlist.t;
  mutable table : table option;  (* compiled on first use, kept from the second *)
  mutable queried : bool;  (* a one-shot query has compiled a table and dropped it *)
  full : Bytes.t array;
      (* by input index: one flag byte per node under the full masks,
         [Bytes.empty] until first use; depends only on the circuit *)
  mutable cut_for : Oracle.plan option;  (* the plan [cut] and [faults] belong to *)
  cut : (int array * int array) option array;
      (* by input index: (sp-dirty nodes ascending, obs-dirty nodes
         ascending) inside [cut_for]'s masks, computed on first use *)
  mutable faults : faults option;  (* [cut_for]'s compiled faults *)
  mutable sp_buf : int array;  (* node-sized buffers for one cut, allocated on the first *)
  mutable obs_buf : int array;
}

let cones c =
  let ni = Array.length (Netlist.inputs c) in
  { circuit = c;
    table = None;
    queried = false;
    full = Array.make ni Bytes.empty;
    cut_for = None;
    cut = Array.make ni None;
    faults = None;
    sp_buf = [||];
    obs_buf = [||] }

let table t =
  match t.table with
  | Some tab -> tab
  | None ->
    let tab = compile t.circuit in
    t.table <- Some tab;
    tab

(* The table for a one-shot sweep.  The first such sweep on a [cones]
   compiles a table for itself and drops it; any later use keeps one.  An
   oracle asked a single question — the analysis ahead of a fault
   simulation — then holds no table while the simulation runs, where
   keeping c6288ish's (about 10k words) raised the peak major heap by
   0.35 MB. *)
let one_shot_table t =
  match t.table with
  | Some tab -> tab
  | None when t.queried -> table t
  | None ->
    t.queried <- true;
    compile t.circuit

(* The cones, the cuts and a state's cached arrays depend on a plan only
   through its masks. *)
let same_masks p q =
  p == q || (Oracle.sp_mask p = Oracle.sp_mask q && Oracle.obs_mask p = Oracle.obs_mask q)

(* Drop [faults] when a query names another plan, and [cut] too unless
   the new plan has the same masks. *)
let switch_plan t plan =
  match t.cut_for with
  | Some p when p == plan -> ()
  | Some p when same_masks p plan ->
    t.cut_for <- Some plan;
    t.faults <- None
  | Some _ | None ->
    t.cut_for <- Some plan;
    t.faults <- None;
    Array.fill t.cut 0 (Array.length t.cut) None

let plan_faults t plan =
  switch_plan t plan;
  match t.faults with
  | Some fs -> fs
  | None ->
    let fs = compile_faults t.circuit plan in
    t.faults <- Some fs;
    fs

let sweep_with tab c ~sp_mask ~obs_mask x =
  let n = Array.length tab.kind in
  if Array.length sp_mask <> n || Array.length obs_mask <> n then
    invalid_arg "Cop_eval.sweep: mask size";
  let sp = Array.make n 0.0 and obs = Array.make n 0.0 in
  sweep_into c tab ~sp_mask ~obs_mask x sp obs;
  (sp, obs)

let sweep t ~sp_mask ~obs_mask x = sweep_with (one_shot_table t) t.circuit ~sp_mask ~obs_mask x

(* A one-shot query reads the plan's faults as they are: a fault table
   built here would be garbage after one use, and on a large universe
   (c6288ish: 5728 faults) it would outweigh the sweep's own arrays. *)
let probs_plan ?(jobs = 1) t plan x =
  let tab = one_shot_table t and c = t.circuit in
  let sp, obs =
    sweep_with tab c ~sp_mask:(Oracle.sp_mask plan) ~obs_mask:(Oracle.obs_mask plan) x
  in
  let sel = Oracle.selected plan in
  let out = Array.make (Array.length sel) 0.0 in
  over_faults ~jobs (Array.length sel) (fun lo hi ->
      for i = lo to hi - 1 do
        let f = sel.(i) in
        let src = Fault.source f c and stuck = f.Fault.stuck in
        out.(i) <-
          (match f.Fault.site with
           | Fault.Stem n -> fault_prob tab sp obs ~src ~site:n ~pin:(-1) ~stuck
           | Fault.Branch (g, k) -> fault_prob tab sp obs ~src ~site:g ~pin:k ~stuck)
      done);
  out

(* --- STAFAN's measured fold ------------------------------------------------- *)

let observability_counted t ~mask (counts : Rt_sim.Fault_sim.counts) =
  let tab = table t in
  let n = Array.length tab.kind in
  if Array.length mask <> n then invalid_arg "Cop_eval.observability_counted: mask size";
  let total = Float.of_int counts.n_patterns in
  let obs = Array.make n 0.0 in
  for g = n - 1 downto 0 do
    if mask.(g) then set_obs_counted tab counts.sens ~total obs g
  done;
  obs

(* p_f = measured activation x observability over the plan's fault
   table; a branch's line through its pin's measured sensitization,
   associated as (act * s) * obs. *)
let probs_counted t plan (counts : Rt_sim.Fault_sim.counts) =
  let obs = observability_counted t ~mask:(Oracle.obs_mask plan) counts in
  let fs = plan_faults t plan in
  let total = Float.of_int counts.n_patterns in
  Array.init (Array.length fs.src) (fun i ->
      let c1 = Float.of_int counts.ones.(fs.src.(i)) /. total in
      let act = if fs.stuck.(i) then 1.0 -. c1 else c1 in
      let site = fs.site.(i) and pin = fs.pin.(i) in
      if pin < 0 then act *. obs.(site)
      else act *. (Float.of_int counts.sens.(site).(pin) /. total) *. obs.(site))

let[@inline] flags b g = Char.code (Bytes.get b g)
let[@inline] mark b g bit = Bytes.set b g (Char.unsafe_chr (flags b g lor bit))

(* The full-circuit damage cone of input [input].  sp side: the
   transitive fanout of the input node, in one ascending sweep (fanin ids
   are smaller).  obs side, the exact rule: [set_obs g] reads, per edge
   (r, k) of g, only [obs r] and — for AND/NAND/OR/NOR, whose pin
   sensitization is the product over the other pins — the signal
   probabilities at the pins j <> k.  So g is dirty iff some such (r, k)
   has [obs r] dirty or an sp-dirty fanin at a pin j <> k.  One
   descending sweep pushes that from each reader to its fanins: readers
   have larger ids, so a reader's own flag is final when it is visited. *)
let build_full c tab input =
  let n = Array.length tab.kind in
  let fanin = tab.fanin in
  let b = Bytes.make n '\000' in
  let root = (Netlist.inputs c).(input) in
  mark b root sp_bit;
  for g = root + 1 to n - 1 do
    let j = ref tab.fanin_at.(g) and hi = tab.fanin_at.(g + 1) in
    while !j < hi do
      if flags b fanin.(!j) land sp_bit <> 0 then begin
        mark b g sp_bit;
        j := hi
      end
      else incr j
    done
  done;
  for r = n - 1 downto 0 do
    let lo = tab.fanin_at.(r) and hi = tab.fanin_at.(r + 1) in
    if flags b r land obs_bit <> 0 then
      for j = lo to hi - 1 do mark b fanin.(j) obs_bit done
    else
      match tab.kind.(r) with
      | Gate.And | Gate.Nand | Gate.Or | Gate.Nor ->
        let ndirty = ref 0 and dirty_pin = ref (-1) in
        for j = lo to hi - 1 do
          if flags b fanin.(j) land sp_bit <> 0 then begin
            incr ndirty;
            dirty_pin := j
          end
        done;
        (* One sp-dirty pin changes the sensitization of every other
           pin; two or more change that of every pin. *)
        if !ndirty > 0 then
          for j = lo to hi - 1 do
            if !ndirty > 1 || j <> !dirty_pin then mark b fanin.(j) obs_bit
          done
      | Gate.Input | Gate.Const0 | Gate.Const1 | Gate.Buf | Gate.Not | Gate.Xor | Gate.Xnor -> ()
  done;
  b

let full t input =
  let b = t.full.(input) in
  if Bytes.length b > 0 then b
  else begin
    let b = build_full t.circuit (table t) input in
    t.full.(input) <- b;
    b
  end

let full_cone_sizes t ~input =
  let b = full t input in
  let ns = ref 0 and no = ref 0 in
  for g = 0 to Bytes.length b - 1 do
    let f = flags b g in
    if f land sp_bit <> 0 then incr ns;
    if f land obs_bit <> 0 then incr no
  done;
  (!ns, !no)

(* The plan's cone is the full cone intersected with its masks.  sp side:
   [sp_mask] is fanin-closed, so every path from the input to a masked node
   is masked, and the masked transitive fanout is fanout ∩ sp_mask.  obs
   side: [obs_mask] is fanout-closed, so a masked node's readers are all
   masked, and [sp_mask] holds every fanin of a masked node; the masked
   rule then reads only flags the full rule reads, and by descending
   induction the masked obs cone is the full one ∩ obs_mask. *)
let intersect t plan input =
  let b = full t input in
  let spm = Oracle.sp_mask plan and om = Oracle.obs_mask plan in
  if Array.length t.sp_buf = 0 then begin
    t.sp_buf <- Array.make (Bytes.length b) 0;
    t.obs_buf <- Array.make (Bytes.length b) 0
  end;
  let sp_buf = t.sp_buf and obs_buf = t.obs_buf in
  let ns = ref 0 and no = ref 0 in
  for g = 0 to Bytes.length b - 1 do
    let f = flags b g in
    if f <> 0 then begin
      if f land sp_bit <> 0 && spm.(g) then begin
        sp_buf.(!ns) <- g;
        incr ns
      end;
      if f land obs_bit <> 0 && om.(g) then begin
        obs_buf.(!no) <- g;
        incr no
      end
    end
  done;
  (Array.sub sp_buf 0 !ns, Array.sub obs_buf 0 !no)

let cone t plan ~input =
  switch_plan t plan;
  match t.cut.(input) with
  | Some cone -> cone
  | None ->
    let cone = intersect t plan input in
    t.cut.(input) <- Some cone;
    cone

(* --- Incremental state ---------------------------------------------------- *)

type state = {
  jobs : int;
  cone_table : cones;  (* shared by every state of one oracle *)
  mutable plan : Oracle.plan option;
  mutable base_x : float array;  (* [||] until the first rebuild *)
  mutable sp : float array;
  mutable obs : float array;
  mutable dirty : int;
      (* the input whose cone holds a cofactor's values instead of
         [base_x]'s, -1 when none *)
}

let create ?(jobs = 1) cone_table =
  { jobs; cone_table; plan = None; base_x = [||]; sp = [||]; obs = [||]; dirty = -1 }

let c_rebuilds = Rt_obs.counter "cop.incremental.rebuilds"
let c_commits = Rt_obs.counter "cop.incremental.commits"
let c_patched = Rt_obs.counter "cop.incremental.nodes_patched"

(* The from-scratch sweep into the state's own arrays, cleared first so
   that every node outside the masks reads 0 as in [probs_plan]. *)
let rebuild st plan x =
  Rt_obs.incr c_rebuilds;
  let tab = table st.cone_table in
  let n = Array.length tab.kind in
  if Array.length st.sp <> n then begin
    st.sp <- Array.make n 0.0;
    st.obs <- Array.make n 0.0
  end
  else begin
    Array.fill st.sp 0 n 0.0;
    Array.fill st.obs 0 n 0.0
  end;
  sweep_into st.cone_table.circuit tab ~sp_mask:(Oracle.sp_mask plan)
    ~obs_mask:(Oracle.obs_mask plan) x st.sp st.obs;
  st.base_x <- Array.copy x;
  st.dirty <- -1

(* Re-evaluate the cone for the input at value [v]: sp ascending, obs
   descending — the same orders and the same per-node kernels as the full
   masked sweeps.  Every cone node is recomputed from its fanins (sp) or
   its readers and their pins (obs), each of them either outside the
   cone, which no patch writes, or recomputed earlier in the pass; so
   what the cone held before — the base point's values or a cofactor's —
   never reaches the result. *)
let apply_patch st (sp_dirty, obs_dirty) v =
  let tab = table st.cone_table in
  let sp = st.sp and obs = st.obs in
  for k = 0 to Array.length sp_dirty - 1 do
    let g = sp_dirty.(k) in
    match tab.kind.(g) with
    | Gate.Input -> sp.(g) <- v  (* only the flipped input itself; inputs have no fanin *)
    | _ -> set_sp tab sp g
  done;
  for k = Array.length obs_dirty - 1 downto 0 do
    set_obs tab sp obs obs_dirty.(k)
  done;
  Rt_obs.add c_patched (Array.length sp_dirty + Array.length obs_dirty)

(* Bring the cached base point to (plan, x).  A plan with the same masks
   as the state's keeps its arrays, which depend only on the masks and
   the point.  There, a single moved coordinate — the optimizer's
   per-coordinate update — commits that coordinate's cone patch in
   place, and a cone a cofactor left dirty is re-patched at its committed
   value (one patch serves both when the moved coordinate is the dirty
   one); anything else rebuilds. *)
let sync st plan x =
  let keep = match st.plan with Some p -> same_masks p plan | None -> false in
  st.plan <- Some plan;
  if not keep then rebuild st plan x
  else begin
    let first = ref (-1) and ndiff = ref 0 in
    for i = 0 to Array.length x - 1 do
      if x.(i) <> st.base_x.(i) then begin
        if !ndiff = 0 then first := i;
        incr ndiff
      end
    done;
    if !ndiff > 1 then rebuild st plan x
    else begin
      let d = st.dirty in
      if d >= 0 && not (!ndiff = 1 && !first = d) then
        apply_patch st (cone st.cone_table plan ~input:d) st.base_x.(d);
      st.dirty <- -1;
      if !ndiff = 1 then begin
        let i = !first in
        apply_patch st (cone st.cone_table plan ~input:i) x.(i);
        st.base_x.(i) <- x.(i);
        Rt_obs.incr c_commits
      end
    end
  end

let fill_plan st plan =
  let fs = plan_faults st.cone_table plan in
  let out = Array.make (Array.length fs.src) 0.0 in
  fill ~jobs:st.jobs (table st.cone_table) fs ~sp:st.sp ~obs:st.obs out;
  out

let eval st plan x =
  sync st plan x;
  fill_plan st plan

(* Both cofactors from the cone patched at 0 and then at 1, with no
   restore in between or after: the cone is marked dirty first, so the
   next [sync] re-patches it at the committed value, even after an
   exception. *)
let cofactor_pair st plan ~input x =
  sync st plan x;
  let cone = cone st.cone_table plan ~input in
  st.dirty <- input;
  apply_patch st cone 0.0;
  let pf0 = fill_plan st plan in
  apply_patch st cone 1.0;
  let pf1 = fill_plan st plan in
  (pf0, pf1)
