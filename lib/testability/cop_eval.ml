(* COP evaluation: the activation x observability estimate, in two
   forms — a plan-restricted sweep (a full query is the all-faults plan),
   and an incremental state that caches a base point's signal
   probabilities / observabilities and re-evaluates only a flipped input's
   damage cone.

   Bit-identity invariant (what makes the incremental path safe for the
   optimizer): after any [eval] / [cofactor_pair], the returned vector is
   bit-for-bit what [probs_plan] computes from scratch at the same
   point.  The argument: a masked node outside fanout*(i) has no path
   from input i (sp_mask is fanin-closed, so any such path would be
   entirely masked), hence its cached value already equals the from-
   scratch value; a node inside the cone is recomputed in ascending
   (topological, therefore level) order with exactly the sweep's
   arithmetic ([Gate.set_prob] over the same fanin reads).  The
   observability side re-runs [Observability.set_cop_node] in descending
   order over exactly the nodes whose kernel reads a changed value: a
   reader's observability, or a side pin's signal probability.  Both
   per-node kernels are the ones the sweeps call, so the patch allocates
   nothing per node.

   The cones depend only on the circuit and the plan's masks, so each
   input's full-circuit cone is built once per oracle ([cones], shared by
   every state the oracle holds) and cut down to a plan's masks by a
   byte scan when the plan changes. *)

module Netlist = Rt_circuit.Netlist
module Gate = Rt_circuit.Gate
module Fault = Rt_fault.Fault
module Parallel = Rt_util.Parallel

let[@inline] fault_prob c ~sp ~obs f =
  let src = Fault.source f c in
  let act = if f.Fault.stuck then 1.0 -. sp.(src) else sp.(src) in
  match f.Fault.site with
  | Fault.Stem n -> act *. obs.(n)
  | Fault.Branch (g, k) -> act *. Observability.pin_observability c ~node_probs:sp ~obs g k

let fill ~jobs c ~sp ~obs faults out =
  (* The per-fault work is sub-microsecond: only worth domains on large
     universes, in slices large enough to amortise claiming them. *)
  Parallel.sweep ~label:"cop.fill" ~grain:1024 ~seq_below:4096 ~jobs ~n:(Array.length faults)
    (fun ~worker:_ ~lo ~hi ->
      for i = lo to hi - 1 do
        out.(i) <- fault_prob c ~sp ~obs faults.(i)
      done)

let probs_plan ?(jobs = 1) c plan x =
  let sp = Signal_prob.independence_subset c ~mask:(Oracle.sp_mask plan) x in
  let obs = Observability.cop_subset c ~mask:(Oracle.obs_mask plan) ~node_probs:sp in
  let out = Array.make (Array.length (Oracle.selected plan)) 0.0 in
  fill ~jobs c ~sp ~obs (Oracle.selected plan) out;
  out

(* --- Damage cones ---------------------------------------------------------- *)

(* Flag bits of a full-circuit cone byte. *)
let sp_bit = 1
let obs_bit = 2

type cones = {
  circuit : Netlist.t;
  full : Bytes.t array;
      (* by input index: one flag byte per node under the full masks,
         [Bytes.empty] until first use; depends only on the circuit *)
  mutable cut_for : Oracle.plan option;  (* the plan [cut] was intersected with *)
  cut : (int array * int array) option array;
      (* by input index: (sp-dirty nodes ascending, obs-dirty nodes
         ascending) inside [cut_for]'s masks, computed on first use *)
  sp_buf : int array;  (* node-sized buffers for one cut *)
  obs_buf : int array;
}

let cones c =
  let ni = Array.length (Netlist.inputs c) and n = Netlist.size c in
  { circuit = c;
    full = Array.make ni Bytes.empty;
    cut_for = None;
    cut = Array.make ni None;
    sp_buf = Array.make n 0;
    obs_buf = Array.make n 0 }

let[@inline] flags b g = Char.code (Bytes.get b g)
let[@inline] mark b g bit = Bytes.set b g (Char.unsafe_chr (flags b g lor bit))

(* The full-circuit damage cone of input [input].  sp side: the
   transitive fanout of the input node, in one ascending sweep (fanin ids
   are smaller).  obs side, the exact rule: [set_cop_node g] reads, per
   reader r and pin k with [fanin r].(k) = g, only [obs r] and — for
   AND/NAND/OR/NOR, whose pin sensitization is the product over the other
   pins — the signal probabilities at the pins j <> k.  So g is dirty iff
   some such (r, k) has [obs r] dirty or an sp-dirty fanin at a pin j <> k.
   One descending sweep pushes that from each reader to its fanins:
   readers have larger ids, so a reader's own flag is final when it is
   visited. *)
let build_full c input =
  let n = Netlist.size c in
  let b = Bytes.make n '\000' in
  let root = (Netlist.inputs c).(input) in
  mark b root sp_bit;
  for g = root + 1 to n - 1 do
    let fi = Netlist.fanin c g in
    let j = ref 0 in
    while !j < Array.length fi do
      if flags b fi.(!j) land sp_bit <> 0 then begin
        mark b g sp_bit;
        j := Array.length fi
      end
      else incr j
    done
  done;
  for r = n - 1 downto 0 do
    let fi = Netlist.fanin c r in
    let nfi = Array.length fi in
    if flags b r land obs_bit <> 0 then
      for k = 0 to nfi - 1 do mark b fi.(k) obs_bit done
    else
      match Netlist.kind c r with
      | Gate.And | Gate.Nand | Gate.Or | Gate.Nor ->
        let ndirty = ref 0 and dirty_pin = ref (-1) in
        for k = 0 to nfi - 1 do
          if flags b fi.(k) land sp_bit <> 0 then begin
            incr ndirty;
            dirty_pin := k
          end
        done;
        (* One sp-dirty pin changes the sensitization of every other
           pin; two or more change that of every pin. *)
        if !ndirty > 0 then
          for k = 0 to nfi - 1 do
            if !ndirty > 1 || k <> !dirty_pin then mark b fi.(k) obs_bit
          done
      | Gate.Input | Gate.Const0 | Gate.Const1 | Gate.Buf | Gate.Not | Gate.Xor | Gate.Xnor -> ()
  done;
  b

let full t input =
  let b = t.full.(input) in
  if Bytes.length b > 0 then b
  else begin
    let b = build_full t.circuit input in
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
  (match t.cut_for with
   | Some p when p == plan -> ()
   | Some _ | None ->
     t.cut_for <- Some plan;
     Array.fill t.cut 0 (Array.length t.cut) None);
  match t.cut.(input) with
  | Some cone -> cone
  | None ->
    let cone = intersect t plan input in
    t.cut.(input) <- Some cone;
    cone

(* --- Incremental state ---------------------------------------------------- *)

type state = {
  c : Netlist.t;
  jobs : int;
  cone_table : cones;  (* shared by every state of one oracle *)
  mutable plan : Oracle.plan option;
  mutable base_x : float array;  (* [||] until the first rebuild *)
  mutable sp : float array;
  mutable obs : float array;
  mutable save_sp : float array;  (* cone-sized undo buffers *)
  mutable save_obs : float array;
}

let create ?(jobs = 1) cone_table =
  { c = cone_table.circuit;
    jobs;
    cone_table;
    plan = None;
    base_x = [||];
    sp = [||];
    obs = [||];
    save_sp = [||];
    save_obs = [||] }

let c_rebuilds = Rt_obs.counter "cop.incremental.rebuilds"
let c_commits = Rt_obs.counter "cop.incremental.commits"
let c_patched = Rt_obs.counter "cop.incremental.nodes_patched"

let rebuild st plan x =
  Rt_obs.incr c_rebuilds;
  st.sp <- Signal_prob.independence_subset st.c ~mask:(Oracle.sp_mask plan) x;
  st.obs <- Observability.cop_subset st.c ~mask:(Oracle.obs_mask plan) ~node_probs:st.sp;
  st.base_x <- Array.copy x

let ensure_saves st n_sp n_obs =
  if Array.length st.save_sp < n_sp then st.save_sp <- Array.make n_sp 0.0;
  if Array.length st.save_obs < n_obs then st.save_obs <- Array.make n_obs 0.0

(* Re-evaluate the cone for the input at value [v], saving the previous
   values into the undo buffers.  sp ascending, obs descending — the same
   orders (and the same per-node arithmetic) as the full masked sweeps. *)
let apply_patch st (sp_dirty, obs_dirty) v =
  let c = st.c in
  let sp = st.sp and obs = st.obs in
  for k = 0 to Array.length sp_dirty - 1 do
    let g = sp_dirty.(k) in
    st.save_sp.(k) <- sp.(g);
    match Netlist.kind c g with
    | Gate.Input -> sp.(g) <- v  (* only the flipped input itself; inputs have no fanin *)
    | kind -> Gate.set_prob kind sp ~fanin:(Netlist.fanin c g) g
  done;
  for k = Array.length obs_dirty - 1 downto 0 do
    let g = obs_dirty.(k) in
    st.save_obs.(k) <- obs.(g);
    Observability.set_cop_node c ~node_probs:sp ~obs g
  done;
  Rt_obs.add c_patched (Array.length sp_dirty + Array.length obs_dirty)

let restore st (sp_dirty, obs_dirty) =
  for k = 0 to Array.length sp_dirty - 1 do
    st.sp.(sp_dirty.(k)) <- st.save_sp.(k)
  done;
  for k = 0 to Array.length obs_dirty - 1 do
    st.obs.(obs_dirty.(k)) <- st.save_obs.(k)
  done

(* Bring the cached base point to (plan, x).  Same plan and a single
   moved coordinate — the optimizer's per-coordinate update — commits
   that coordinate's cone patch in place; anything else rebuilds. *)
let sync st plan x =
  let same_plan = match st.plan with Some p -> p == plan | None -> false in
  if not same_plan then begin
    st.plan <- Some plan;
    rebuild st plan x
  end
  else begin
    let first = ref (-1) and ndiff = ref 0 in
    for i = 0 to Array.length x - 1 do
      if x.(i) <> st.base_x.(i) then begin
        if !ndiff = 0 then first := i;
        incr ndiff
      end
    done;
    if !ndiff = 1 then begin
      let i = !first in
      let ((sp_d, obs_d) as cone) = cone st.cone_table plan ~input:i in
      ensure_saves st (Array.length sp_d) (Array.length obs_d);
      apply_patch st cone x.(i);
      st.base_x.(i) <- x.(i);
      Rt_obs.incr c_commits
    end
    else if !ndiff > 1 then rebuild st plan x
  end

let eval st plan x =
  sync st plan x;
  let sel = Oracle.selected plan in
  let out = Array.make (Array.length sel) 0.0 in
  fill ~jobs:st.jobs st.c ~sp:st.sp ~obs:st.obs sel out;
  out

let cofactor_pair st plan ~input x =
  sync st plan x;
  let ((sp_d, obs_d) as cone) = cone st.cone_table plan ~input in
  ensure_saves st (Array.length sp_d) (Array.length obs_d);
  let sel = Oracle.selected plan in
  let nf = Array.length sel in
  let eval_patched v =
    apply_patch st cone v;
    Fun.protect
      ~finally:(fun () -> restore st cone)
      (fun () ->
        let out = Array.make nf 0.0 in
        fill ~jobs:st.jobs st.c ~sp:st.sp ~obs:st.obs sel out;
        out)
  in
  let pf0 = eval_patched 0.0 in
  let pf1 = eval_patched 1.0 in
  (pf0, pf1)
