(* COP evaluation: the activation x observability estimate, in two
   forms — a plan-restricted sweep (a full query is the all-faults plan),
   and an incremental state that caches a base point's signal
   probabilities, pin sensitizations and observabilities and
   re-evaluates only a flipped input's damage cone.

   Both forms run one compiled kernel.  A circuit's gates are compiled
   once per [cones] value, on first use, into flat arrays: a gate code per
   node, every fanin row in one int array, and every node's observability
   edges — the (reader, pin) pairs that read it — packed one int each in
   one int array.  A pin's index in the fanin array is its slot; a
   sensitization table holds one float per slot, the probability that
   its gate's output is sensitive to it, plus a stem slot that stays 1.0.
   A plan's faults are compiled into a fault table (source node, site,
   slot, stuck value) cached the way the plan's cone cut is.  The sweeps,
   the damage-cone patch and the per-fault fill all run the four
   per-node kernels below over these tables.  STAFAN's measured fold
   ([probs_counted]) fills a sensitization table with counted ratios and
   runs the same observability kernel, so one edit to the fold reaches
   COP, its cofactors and STAFAN.

   Bit-identity invariant (what makes the incremental path safe for the
   optimizer): after any [eval] / [cofactor_pair], the returned vector is
   bit-for-bit what [probs_plan] computes from scratch at the same
   point.  The argument: a masked node outside fanout*(i) has no path
   from input i (sp_mask is fanin-closed, so any such path would be
   entirely masked), hence its cached value already equals the from-
   scratch value; a node inside the cone is recomputed in ascending
   (topological, therefore level) order by the sweep's own kernel over
   the same fanin reads.  Sensitization slots are refilled for every
   masked AND/NAND/OR/NOR gate with a changed pin — no other slot reads a
   changed value — and the observability side re-runs the sweep's
   observability kernel in descending order over exactly the nodes whose
   kernel reads a changed value: a reader's observability, or a
   reader's slot.  The kernels allocate nothing per node.

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
  edge : int array;  (* (slot lsl node_bits) lor reader, in the observability fold's order *)
  node_bits : int;
}

(* A pin's slot is its index in [fanin]: pin k of gate r is slot
   [fanin_at.(r) + k].  A sensitization table holds one float per slot
   and one more, [stem_slot], that stays 1.0: a stem's line is observed
   through no pin. *)
let stem_slot t = Array.length t.fanin
let sens_table t = Array.make (stem_slot t + 1) 1.0

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
  for g = 0 to n - 1 do
    fanin_at.(g + 1) <- fanin_at.(g) + Array.length (Netlist.fanin c g)
  done;
  let fanin = Array.make fanin_at.(n) 0 in
  for g = 0 to n - 1 do
    let fi = Netlist.fanin c g in
    Array.blit fi 0 fanin fanin_at.(g) (Array.length fi)
  done;
  let node_bits = ref 0 in
  while 1 lsl !node_bits < n do
    incr node_bits
  done;
  let node_bits = !node_bits in
  let edges_of g emit =
    let readers = Netlist.fanout c g in
    for ri = Array.length readers - 1 downto 0 do
      let r = readers.(ri) in
      if ri = Array.length readers - 1 || readers.(ri + 1) <> r then
        for j = fanin_at.(r + 1) - 1 downto fanin_at.(r) do
          if fanin.(j) = g then emit ((j lsl node_bits) lor r)
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
    node_bits }

(* --- The per-node kernels ------------------------------------------------------

   Each stores into the caller's array or returns a float that stays
   unboxed: all are inlined into the loops below, and dune's
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

(* Gate r's pin sensitizations into its slots: the probability that its
   output is sensitive to pin k is the product, from 1.0 in pin order,
   over the other pins at their non-controlling value.  Pin k's product
   continues the running product of pins 0 .. k-1, so every float is the
   one a fold over the other pins computes.  BUF/NOT/XOR/XNOR pins are
   sensitive outright: their slots keep the 1.0 [sens_table] put there. *)
let[@inline] set_sens t (sp : float array) (sens : float array) r =
  let fanin = t.fanin in
  let lo = t.fanin_at.(r) and hi = t.fanin_at.(r + 1) in
  match t.kind.(r) with
  | Gate.And | Gate.Nand ->
    let pre = ref 1.0 in
    for k = lo to hi - 1 do
      let acc = ref !pre in
      for j = k + 1 to hi - 1 do
        acc := !acc *. sp.(fanin.(j))
      done;
      sens.(k) <- !acc;
      pre := !pre *. sp.(fanin.(k))
    done
  | Gate.Or | Gate.Nor ->
    let pre = ref 1.0 in
    for k = lo to hi - 1 do
      let acc = ref !pre in
      for j = k + 1 to hi - 1 do
        acc := !acc *. (1.0 -. sp.(fanin.(j)))
      done;
      sens.(k) <- !acc;
      pre := !pre *. (1.0 -. sp.(fanin.(k)))
    done
  | Gate.Input | Gate.Const0 | Gate.Const1 | Gate.Buf | Gate.Not | Gate.Xor | Gate.Xnor -> ()

(* The stem fold: node g's branch observabilities o_b recombine as
   1 - prod (1 - o_b), the product running from 0.0 at a primary output
   (observed outright) and from 1.0 elsewhere (STAFAN's rule; under
   reconvergent fanout an estimate that can overestimate), in the edge
   order [compile] fixes.  Each edge (r, k) is a branch observable with
   its pin's sensitization times [obs r].  COP and STAFAN share this
   kernel; they differ only in how [sens] was filled. *)
let[@inline] stem_start t g = if Bytes.get t.output g <> '\000' then 0.0 else 1.0
let[@inline] stem_step acc o = acc *. (1.0 -. o)

let[@inline] set_obs t (sens : float array) (obs : float array) g =
  let edge = t.edge and node_bits = t.node_bits in
  let node_mask = (1 lsl node_bits) - 1 in
  let acc = ref (stem_start t g) in
  for e = t.edge_at.(g) to t.edge_at.(g + 1) - 1 do
    let r = edge.(e) land node_mask in
    acc := stem_step !acc (sens.(edge.(e) lsr node_bits) *. obs.(r))
  done;
  obs.(g) <- 1.0 -. !acc

(* --- Sweeps -------------------------------------------------------------------- *)

(* Signal probabilities ascending; then, descending, each masked node's
   pin sensitizations and observability.  A node's readers have larger
   ids, so their slots are filled before its fold reads them, and a
   masked node's readers are masked. *)
let sweep_into c t ~sp_mask ~obs_mask x sp sens obs =
  let n = Array.length t.kind in
  for g = 0 to n - 1 do
    if sp_mask.(g) then
      match t.kind.(g) with
      | Gate.Input -> sp.(g) <- x.(Netlist.input_index c g)
      | _ -> set_sp t sp g
  done;
  for g = n - 1 downto 0 do
    if obs_mask.(g) then begin
      set_sens t sp sens g;
      set_obs t sens obs g
    end
  done

(* --- The compiled faults ------------------------------------------------------- *)

type faults = {
  src : int array;  (* the node driving the faulted line *)
  site : int array;  (* the stem's node, or the gate a branch enters *)
  slot : int array;  (* the branch's pin slot, [stem_slot] for a stem *)
  stuck : bool array;
}

let slot_of t (f : Fault.t) =
  match f.site with Fault.Stem _ -> stem_slot t | Fault.Branch (g, k) -> t.fanin_at.(g) + k

let site_of (f : Fault.t) = match f.site with Fault.Stem n -> n | Fault.Branch (g, _) -> g

let compile_faults c t plan =
  let sel = Oracle.selected plan in
  { src = Array.map (fun f -> Fault.source f c) sel;
    site = Array.map site_of sel;
    slot = Array.map (slot_of t) sel;
    stuck = Array.map (fun f -> f.Fault.stuck) sel }

(* p_f = activation x observability of the faulted line: the site's
   observability through the line's slot, 1.0 for a stem. *)
let[@inline] fault_prob (sp : float array) (sens : float array) (obs : float array) ~src ~site
    ~slot ~stuck =
  let act = if stuck then 1.0 -. sp.(src) else sp.(src) in
  act *. (sens.(slot) *. obs.(site))

(* [fill lo hi] for slices of [0, n).  The per-fault work is
   sub-microsecond: only worth domains on large universes. *)
let over_faults ~jobs n fill =
  Parallel.sweep ~label:"cop.fill" ~seq_below:4096 ~jobs ~n (fun ~worker:_ ~lo ~hi -> fill lo hi)

let fill ~jobs fs ~sp ~sens ~obs out =
  over_faults ~jobs (Array.length fs.src) (fun lo hi ->
      for i = lo to hi - 1 do
        out.(i) <-
          fault_prob sp sens obs ~src:fs.src.(i) ~site:fs.site.(i) ~slot:fs.slot.(i)
            ~stuck:fs.stuck.(i)
      done)

(* --- Damage cones and the compiled state they share ----------------------------- *)

(* Flag bits of a full-circuit cone byte. *)
let sp_bit = 1
let obs_bit = 2
let sens_bit = 4

type cones = {
  circuit : Netlist.t;
  mutable table : table option;  (* compiled on first use, kept from the second *)
  mutable queried : bool;  (* a one-shot query has compiled a table and dropped it *)
  full : Bytes.t array;
      (* by input index: one flag byte per node under the full masks,
         [Bytes.empty] until first use; depends only on the circuit *)
  mutable cut_for : Oracle.plan option;  (* the plan [cut] and [faults] belong to *)
  cut : Bytes.t array;
      (* by input index: the cone inside [cut_for]'s masks, [Bytes.empty]
         until first use; 32-bit entries [ns; nz; no], then its ns
         sp-dirty nodes, nz sens-dirty gates and no obs-dirty nodes,
         every list ascending *)
  mutable faults : faults option;  (* [cut_for]'s compiled faults *)
  mutable shot_sens : float array;
      (* the one-shot sweeps' sensitization table, once [table] is kept *)
  mutable scratch : Bytes.t;  (* three node-sized cut lists for one scan, allocated on the first *)
}

let cones c =
  let ni = Array.length (Netlist.inputs c) in
  { circuit = c;
    table = None;
    queried = false;
    full = Array.make ni Bytes.empty;
    cut_for = None;
    cut = Array.make ni Bytes.empty;
    faults = None;
    shot_sens = [||];
    scratch = Bytes.empty }

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

(* Drop [faults] when a query names another plan, and the cuts too
   unless the new plan has the same masks. *)
let switch_plan t plan =
  match t.cut_for with
  | Some p when p == plan -> ()
  | Some p when same_masks p plan ->
    t.cut_for <- Some plan;
    t.faults <- None
  | Some _ | None ->
    t.cut_for <- Some plan;
    t.faults <- None;
    Array.fill t.cut 0 (Array.length t.cut) Bytes.empty

let plan_faults t plan =
  switch_plan t plan;
  match t.faults with
  | Some fs -> fs
  | None ->
    let fs = compile_faults t.circuit (table t) plan in
    t.faults <- Some fs;
    fs

(* A one-shot sweep's arrays.  Its sensitization table is the kept one
   once the circuit table is kept: a sweep refills every slot it reads,
   so no slot needs clearing between sweeps, and the conditioned engine's
   2^k one-shot sweeps per query make no table-sized garbage. *)
let one_shot_sweep t ~sp_mask ~obs_mask x =
  let tab = one_shot_table t in
  let n = Array.length tab.kind in
  if Array.length sp_mask <> n || Array.length obs_mask <> n then
    invalid_arg "Cop_eval.sweep: mask size";
  let sens =
    match t.table with
    | None -> sens_table tab
    | Some _ ->
      if Array.length t.shot_sens = 0 then t.shot_sens <- sens_table tab;
      t.shot_sens
  in
  let sp = Array.make n 0.0 and obs = Array.make n 0.0 in
  sweep_into t.circuit tab ~sp_mask ~obs_mask x sp sens obs;
  (tab, sp, sens, obs)

let sweep t ~sp_mask ~obs_mask x =
  let _, sp, _, obs = one_shot_sweep t ~sp_mask ~obs_mask x in
  (sp, obs)

(* A one-shot query reads the plan's faults as they are: a fault table
   built here would be garbage after one use, and on a large universe
   (c6288ish: 5728 faults) it would outweigh the sweep's own arrays. *)
let probs_plan ?(jobs = 1) t plan x =
  let c = t.circuit in
  let tab, sp, sens, obs =
    one_shot_sweep t ~sp_mask:(Oracle.sp_mask plan) ~obs_mask:(Oracle.obs_mask plan) x
  in
  let sel = Oracle.selected plan in
  let out = Array.make (Array.length sel) 0.0 in
  over_faults ~jobs (Array.length sel) (fun lo hi ->
      for i = lo to hi - 1 do
        let f = sel.(i) in
        out.(i) <-
          fault_prob sp sens obs ~src:(Fault.source f c) ~site:(site_of f) ~slot:(slot_of tab f)
            ~stuck:f.Fault.stuck
      done);
  out

(* --- STAFAN's measured fold ------------------------------------------------- *)

(* The sensitization table filled with every pin's measured ratio
   [count / total], and the observability fold over it. *)
let counted_sweep t ~mask (counts : Rt_sim.Fault_sim.counts) =
  let tab = table t in
  let n = Array.length tab.kind in
  if Array.length mask <> n then invalid_arg "Cop_eval.observability_counted: mask size";
  let total = Float.of_int counts.n_patterns in
  let sens = sens_table tab in
  for g = 0 to n - 1 do
    let s = counts.sens.(g) and at = tab.fanin_at.(g) in
    for k = 0 to Array.length s - 1 do
      sens.(at + k) <- Float.of_int s.(k) /. total
    done
  done;
  let obs = Array.make n 0.0 in
  for g = n - 1 downto 0 do
    if mask.(g) then set_obs tab sens obs g
  done;
  (sens, obs)

let observability_counted t ~mask counts = snd (counted_sweep t ~mask counts)

(* p_f = measured activation x observability over the plan's fault
   table; the line through its slot's measured sensitization, associated
   as (act * s) * obs (s = 1.0 for a stem). *)
let probs_counted t plan (counts : Rt_sim.Fault_sim.counts) =
  let sens, obs = counted_sweep t ~mask:(Oracle.obs_mask plan) counts in
  let fs = plan_faults t plan in
  let total = Float.of_int counts.n_patterns in
  Array.init (Array.length fs.src) (fun i ->
      let c1 = Float.of_int counts.ones.(fs.src.(i)) /. total in
      let act = if fs.stuck.(i) then 1.0 -. c1 else c1 in
      act *. sens.(fs.slot.(i)) *. obs.(fs.site.(i)))

let[@inline] flags b g = Char.code (Bytes.get b g)

let[@inline] mark b g bit = Bytes.set b g (Char.unsafe_chr (flags b g lor bit))

(* A cut's entries are 32-bit: node ids, and the lengths in front.  The
   primitives compile inline, where [Bytes.get_int32_le] would box. *)
external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

let[@inline] cut_get cut k = Int32.to_int (get32 cut (4 * k))
let[@inline] cut_set cut k v = set32 cut (4 * k) (Int32.of_int v)

(* The full-circuit damage cone of input [input].  sp side: the
   transitive fanout of the input node, in one ascending sweep (fanin ids
   are smaller).  sens side: an AND/NAND/OR/NOR gate with an sp-dirty
   pin, whose pin products read those pins (the other gates' slots hold
   a constant 1.0).  obs side, the exact rule: [set_obs g] reads, per
   edge (r, k) of g, only [obs r] and the slot of pin k, which moves when
   r is sens-dirty and some pin j <> k is sp-dirty.  So g is dirty iff
   some such (r, k) has [obs r] dirty or an sp-dirty fanin at a pin
   j <> k.  One descending sweep pushes that from each reader to its
   fanins: readers have larger ids, so a reader's own flag is final when
   it is visited. *)
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
    let ndirty = ref 0 and dirty_pin = ref (-1) in
    (match tab.kind.(r) with
     | Gate.And | Gate.Nand | Gate.Or | Gate.Nor ->
       for j = lo to hi - 1 do
         if flags b fanin.(j) land sp_bit <> 0 then begin
           incr ndirty;
           dirty_pin := j
         end
       done;
       if !ndirty > 0 then mark b r sens_bit
     | Gate.Input | Gate.Const0 | Gate.Const1 | Gate.Buf | Gate.Not | Gate.Xor | Gate.Xnor -> ());
    if flags b r land obs_bit <> 0 then
      for j = lo to hi - 1 do
        mark b fanin.(j) obs_bit
      done
    else if !ndirty > 0 then
      (* One sp-dirty pin changes the sensitization of every other pin;
         two or more change that of every pin. *)
      for j = lo to hi - 1 do
        if !ndirty > 1 || j <> !dirty_pin then mark b fanin.(j) obs_bit
      done
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

(* The plan's cone is the full cone intersected with its masks.  sp
   side: [sp_mask] is fanin-closed, so every path from the input to a
   masked node is masked, and the masked transitive fanout is fanout ∩
   sp_mask.  sens side: a slot is read only at a gate of [obs_mask] (a
   reader of a masked node, or a fault's site), and [sp_mask] holds every
   pin of such a gate, so a pin of it is masked sp-dirty iff it is
   sp-dirty: the masked sens cut is the full one ∩ obs_mask, and no other
   gate's slots are read.  obs side: [obs_mask] is fanout-closed, so a
   masked node's readers are all masked; the masked rule then reads only
   flags the full rule reads, and by descending induction the masked obs
   cone is the full one ∩ obs_mask. *)
let intersect t plan input =
  let b = full t input in
  let n = Bytes.length b in
  let spm = Oracle.sp_mask plan and om = Oracle.obs_mask plan in
  if Bytes.length t.scratch = 0 then t.scratch <- Bytes.create (4 * 3 * n);
  let buf = t.scratch in
  let ns = ref 0 and nz = ref 0 and no = ref 0 in
  for g = 0 to n - 1 do
    let f = flags b g in
    if f <> 0 then begin
      if f land sp_bit <> 0 && spm.(g) then begin
        cut_set buf !ns g;
        incr ns
      end;
      if om.(g) then begin
        if f land sens_bit <> 0 then begin
          cut_set buf (n + !nz) g;
          incr nz
        end;
        if f land obs_bit <> 0 then begin
          cut_set buf ((2 * n) + !no) g;
          incr no
        end
      end
    end
  done;
  let ns = !ns and nz = !nz and no = !no in
  let cut = Bytes.create (4 * (3 + ns + nz + no)) in
  cut_set cut 0 ns;
  cut_set cut 1 nz;
  cut_set cut 2 no;
  Bytes.blit buf 0 cut (4 * 3) (4 * ns);
  Bytes.blit buf (4 * n) cut (4 * (3 + ns)) (4 * nz);
  Bytes.blit buf (4 * 2 * n) cut (4 * (3 + ns + nz)) (4 * no);
  cut

let cut t plan ~input =
  switch_plan t plan;
  let cut = t.cut.(input) in
  if Bytes.length cut > 0 then cut
  else begin
    let cut = intersect t plan input in
    t.cut.(input) <- cut;
    cut
  end

let cone t plan ~input =
  let cut = cut t plan ~input in
  let ns = cut_get cut 0 and nz = cut_get cut 1 and no = cut_get cut 2 in
  ( Array.init ns (fun k -> cut_get cut (3 + k)),
    Array.init nz (fun k -> cut_get cut (3 + ns + k)),
    Array.init no (fun k -> cut_get cut (3 + ns + nz + k)) )

(* --- Incremental state ---------------------------------------------------- *)

type state = {
  jobs : int;
  cone_table : cones;  (* shared by every state of one oracle *)
  mutable plan : Oracle.plan option;
  mutable base_x : float array;  (* [||] until the first rebuild *)
  mutable sp : float array;
  mutable sens : float array;  (* one slot per pin and [stem_slot] *)
  mutable obs : float array;
  mutable dirty : int;
      (* the input whose cone holds a cofactor's values instead of
         [base_x]'s, -1 when none *)
}

let create ?(jobs = 1) cone_table =
  { jobs; cone_table; plan = None; base_x = [||]; sp = [||]; sens = [||]; obs = [||]; dirty = -1 }

let c_rebuilds = Rt_obs.counter "cop.incremental.rebuilds"
let c_commits = Rt_obs.counter "cop.incremental.commits"
let c_patched = Rt_obs.counter "cop.incremental.nodes_patched"

(* The from-scratch sweep into the state's own arrays, [sp] and [obs]
   cleared first so that every node outside the masks reads 0 as in
   [probs_plan].  [sens] is not: the sweep refills the slots of every
   gate in [obs_mask], and no other gate's slots are read. *)
let rebuild st plan x =
  Rt_obs.incr c_rebuilds;
  let tab = table st.cone_table in
  let n = Array.length tab.kind in
  if Array.length st.sp <> n then begin
    st.sp <- Array.make n 0.0;
    st.sens <- sens_table tab;
    st.obs <- Array.make n 0.0
  end
  else begin
    Array.fill st.sp 0 n 0.0;
    Array.fill st.obs 0 n 0.0
  end;
  sweep_into st.cone_table.circuit tab ~sp_mask:(Oracle.sp_mask plan)
    ~obs_mask:(Oracle.obs_mask plan) x st.sp st.sens st.obs;
  st.base_x <- Array.copy x;
  st.dirty <- -1

(* Re-evaluate the cut for the input at value [v]: sp ascending,
   then the sens-dirty gates' slots, then obs descending — the same
   kernels as the full masked sweep, in orders that give the same floats.
   Every cone node is recomputed from its fanins (sp), its pins (sens) or
   its readers and their slots (obs), each of them either outside the
   cone, which no patch writes, or recomputed earlier in the pass; so
   what the cone held before — the base point's values or a cofactor's —
   never reaches the result. *)
let apply_patch st cut v =
  let tab = table st.cone_table in
  let sp = st.sp and sens = st.sens and obs = st.obs in
  let ns = cut_get cut 0 and nz = cut_get cut 1 and no = cut_get cut 2 in
  let sens_lo = 3 + ns in
  let obs_lo = sens_lo + nz in
  for k = 3 to sens_lo - 1 do
    let g = cut_get cut k in
    match tab.kind.(g) with
    | Gate.Input -> sp.(g) <- v  (* only the flipped input itself; inputs have no fanin *)
    | _ -> set_sp tab sp g
  done;
  for k = sens_lo to obs_lo - 1 do
    set_sens tab sp sens (cut_get cut k)
  done;
  for k = obs_lo + no - 1 downto obs_lo do
    set_obs tab sens obs (cut_get cut k)
  done;
  Rt_obs.add c_patched (ns + no)

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
        apply_patch st (cut st.cone_table plan ~input:d) st.base_x.(d);
      st.dirty <- -1;
      if !ndiff = 1 then begin
        let i = !first in
        apply_patch st (cut st.cone_table plan ~input:i) x.(i);
        st.base_x.(i) <- x.(i);
        Rt_obs.incr c_commits
      end
    end
  end

let fill_plan st plan =
  let fs = plan_faults st.cone_table plan in
  let out = Array.make (Array.length fs.src) 0.0 in
  fill ~jobs:st.jobs fs ~sp:st.sp ~sens:st.sens ~obs:st.obs out;
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
  let cone = cut st.cone_table plan ~input in
  st.dirty <- input;
  apply_patch st cone 0.0;
  let pf0 = fill_plan st plan in
  apply_patch st cone 1.0;
  let pf1 = fill_plan st plan in
  (pf0, pf1)
