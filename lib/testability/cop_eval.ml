(* COP evaluation: the activation x observability estimate, in three
   forms — full sweep, plan-restricted sweep, and an incremental state
   that caches a base point's signal probabilities / observabilities and
   re-evaluates only a flipped input's damage cone.

   Bit-identity invariant (what makes the incremental path safe for the
   optimizer): after any [eval] / [cofactor_pair], the returned vector is
   bit-for-bit what [probs_subset] computes from scratch at the same
   point.  The argument: a masked node outside fanout*(i) has no path
   from input i (sp_mask is fanin-closed, so any such path would be
   entirely masked), hence its cached value already equals the from-
   scratch value; a node inside the cone is recomputed in ascending
   (topological, therefore level) order with exactly the sweep's
   arithmetic ([Gate.set_prob] over the same fanin reads).  The
   observability side re-runs [Observability.set_cop_node] in descending
   order over the nodes whose readers changed (observability or side-pin
   sensitization), seeded conservatively — extra recomputation reproduces
   the same floats, so conservatism costs time, never exactness.  Both
   per-node kernels are the ones the sweeps call, so the patch allocates
   nothing per node. *)

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
  let nf = Array.length faults in
  (* The per-fault work is sub-microsecond: only worth domains on large
     universes (and never more domains than cores — see Parallel.region). *)
  Parallel.region ~label:"cop.fill" ~min_per_chunk:1024 ~seq_below:4096 ~jobs ~n:nf
    (fun ~chunk:_ ~lo ~hi ->
      for i = lo to hi - 1 do
        out.(i) <- fault_prob c ~sp ~obs faults.(i)
      done)

let probs ?(jobs = 1) c faults x =
  let sp = Signal_prob.independence c x in
  let obs = Observability.cop c ~node_probs:sp in
  let out = Array.make (Array.length faults) 0.0 in
  fill ~jobs c ~sp ~obs faults out;
  out

let probs_subset ?(jobs = 1) c plan x =
  let sp = Signal_prob.independence_subset c ~mask:(Oracle.sp_mask plan) x in
  let obs = Observability.cop_subset c ~mask:(Oracle.obs_mask plan) ~node_probs:sp in
  let out = Array.make (Array.length (Oracle.selected plan)) 0.0 in
  fill ~jobs c ~sp ~obs (Oracle.selected plan) out;
  out

(* --- Incremental state ---------------------------------------------------- *)

type state = {
  c : Netlist.t;
  jobs : int;
  mutable plan : Oracle.plan option;
  mutable base_x : float array;  (* [||] until the first rebuild *)
  mutable sp : float array;
  mutable obs : float array;
  cones : (int array * int array) option array;
      (* by input index: (sp-dirty nodes ascending, obs-dirty nodes
         ascending), computed on first use; depends only on the plan's
         masks, so reset on plan change and kept across base-point
         moves *)
  sp_dirty_scratch : bool array;
  mutable save_sp : float array;  (* cone-sized undo buffers *)
  mutable save_obs : float array;
}

let create ?(jobs = 1) c =
  { c;
    jobs;
    plan = None;
    base_x = [||];
    sp = [||];
    obs = [||];
    cones = Array.make (Array.length (Netlist.inputs c)) None;
    sp_dirty_scratch = Array.make (Netlist.size c) false;
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

(* The damage cone of input [i] under the plan's masks.  sp side: the
   masked transitive fanout of the input node (ascending = level order).
   obs side: a node's observability must be recomputed when a reader's
   observability changed or a reader's side-pin sensitization changed —
   i.e. when some reader has any sp-dirty fanin.  One descending sweep
   decides both (readers have larger ids, so they are final when their
   fanins are visited). *)
let compute_cone st plan input =
  let c = st.c in
  let n = Netlist.size c in
  let root = (Netlist.inputs c).(input) in
  let sp_dirty = Rt_circuit.Cone.fanout_within c ~mask:(Oracle.sp_mask plan) root in
  if Array.length sp_dirty = 0 then ([||], [||])
  else begin
    let spd = st.sp_dirty_scratch in
    Array.iter (fun g -> spd.(g) <- true) sp_dirty;
    let obs_mask = Oracle.obs_mask plan in
    let od = Array.make n false in
    let count = ref 0 in
    for g = n - 1 downto 0 do
      if obs_mask.(g)
         && Array.exists
              (fun r -> od.(r) || Array.exists (fun f -> spd.(f)) (Netlist.fanin c r))
              (Netlist.fanout c g)
      then begin
        od.(g) <- true;
        incr count
      end
    done;
    Array.iter (fun g -> spd.(g) <- false) sp_dirty;
    let obs_dirty = Array.make !count 0 in
    let k = ref 0 in
    for g = 0 to n - 1 do
      if od.(g) then begin
        obs_dirty.(!k) <- g;
        incr k
      end
    done;
    (sp_dirty, obs_dirty)
  end

let get_cone st plan input =
  match st.cones.(input) with
  | Some cone -> cone
  | None ->
    let cone = compute_cone st plan input in
    st.cones.(input) <- Some cone;
    cone

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
    Observability.set_cop_node c ~stem_rule:Observability.Complement_product ~node_probs:sp ~obs g
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
    Array.fill st.cones 0 (Array.length st.cones) None;
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
      let ((sp_d, obs_d) as cone) = get_cone st plan i in
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
  let ((sp_d, obs_d) as cone) = get_cone st plan input in
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
