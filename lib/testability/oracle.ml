(* The engine-agnostic oracle protocol (record-of-closures).  Every
   ANALYSIS engine — COP, conditioned COP, exact BDD, STAFAN, Monte-Carlo
   — is a value of [t]; the optimizer talks only to this interface.

   Each engine has one evaluation kernel, its plan query [run_subset];
   its full query [run] is that kernel over an all-faults plan built when
   the engine is constructed.  The protocol's core operation is
   [cofactor_pair]: both single-variable cofactors p_f(X,0|i) and
   p_f(X,1|i) of a fault subset from ONE traversal (paper §4, eq. 15 — the
   PREPARE step).  Engines that can exploit incrementality provide a fused
   implementation (registered via [?cofactor_pair] at construction); the
   others fall back to two independent plan queries.  Which path ran is
   visible in the [oracle.cofactor.{incremental,full}] counters and the
   per-query span. *)

module Netlist = Rt_circuit.Netlist
module Fault = Rt_fault.Fault

type plan = {
  key : int array;  (* the subset index array *)
  owner : Fault.t array;
      (* the fault array the indices refer to; queries validate it with
         [==] so a plan can never be replayed against another oracle *)
  sel : Fault.t array;
  obs_mask : bool array;
      (* union of the selected faults' transitive fanout cones: the nodes
         whose observability the COP/STAFAN estimate needs (fanout-closed
         because ids are topological). *)
  sp_mask : bool array;
      (* fanin closure of the masked nodes and their side pins: the nodes
         whose signal probability those observabilities (plus the
         activation terms) read. *)
}

type t = {
  c : Netlist.t;
  fault_list : Fault.t array;
  kind : string;
  label : string;
  exact : bool array;
  redundant : bool array;
  run : float array -> float array;
  run_subset : plan -> float array -> float array;
  cofactor : (plan -> input:int -> float array -> float array * float array) option;
  cq_run : Rt_obs.counter;
  cq_cofactor : Rt_obs.counter;
}

let c_cof_incremental = Rt_obs.counter "oracle.cofactor.incremental"
let c_cof_full = Rt_obs.counter "oracle.cofactor.full"

let make ~kind ~label ~c ~faults ~exact ~redundant ~run ~run_subset ?cofactor_pair () =
  { c;
    fault_list = faults;
    kind;
    label;
    exact;
    redundant;
    run;
    run_subset;
    cofactor = cofactor_pair;
    cq_run = Rt_obs.counter ("oracle.queries." ^ kind);
    cq_cofactor = Rt_obs.counter ("oracle.cofactor_queries." ^ kind) }

(* --- Subset plans ---------------------------------------------------------

   PREPARE (paper §4) only ever asks for the detection probabilities of the
   [nf] hardest faults, so every engine evaluates a plan: the selected
   faults plus the node masks their evaluation touches.  A plan depends
   only on the circuit and the fault array, so engines build their
   all-faults plan (behind {!probs}) before the oracle exists, and OPTIMIZE
   builds one per sweep for its [hard_indices]. *)

let make_plan c faults subset =
  Rt_obs.with_span ~cat:"detect" "subset_plan" @@ fun () ->
  let n = Netlist.size c in
  let nf = Array.length faults in
  let sel =
    Array.map
      (fun i ->
        if i < 0 || i >= nf then invalid_arg "Oracle.plan: fault index out of range";
        faults.(i))
      subset
  in
  let obs_mask = Array.make n false in
  Array.iter
    (fun f ->
      let site = match f.Fault.site with Fault.Stem s -> s | Fault.Branch (g, _) -> g in
      obs_mask.(site) <- true)
    sel;
  (* Fanout closure in one ascending sweep (fanin ids are smaller). *)
  for i = 0 to n - 1 do
    if not obs_mask.(i) then
      if Array.exists (fun j -> obs_mask.(j)) (Netlist.fanin c i) then obs_mask.(i) <- true
  done;
  let sp_mask = Array.make n false in
  for i = 0 to n - 1 do
    if obs_mask.(i) then begin
      sp_mask.(i) <- true;
      Array.iter (fun j -> sp_mask.(j) <- true) (Netlist.fanin c i)
    end
  done;
  (* Fanin closure in one descending sweep. *)
  for i = n - 1 downto 0 do
    if sp_mask.(i) then Array.iter (fun j -> sp_mask.(j) <- true) (Netlist.fanin c i)
  done;
  { key = subset; owner = faults; sel; obs_mask; sp_mask }

let plan o subset = make_plan o.c o.fault_list subset

(* --- Queries --------------------------------------------------------------

   Every dispatch through the oracle is a span named for the query
   ("analysis" / "analysis.subset" / "cofactor_pair"), categorised by
   engine, plus per-engine query counters — full-vector, plan and
   cofactor queries separately so the PREPARE savings are visible in a
   metrics snapshot.  The spans' durations are the latency record:
   [obs diff] gates their exact p50/p99 per name and engine, so a tail
   regression is visible even when the totals (and hence the mean) barely
   move. *)

let check_width o x name =
  if Array.length x <> Array.length (Netlist.inputs o.c) then
    invalid_arg (name ^ ": weight vector width mismatch")

let probs o x =
  check_width o x "Oracle.probs";
  Rt_obs.incr o.cq_run;
  Rt_obs.with_span ~cat:o.kind "analysis" (fun () -> o.run x)

let probs_plan o p x =
  check_width o x "Oracle.probs_plan";
  if p.owner != o.fault_list then invalid_arg "Oracle.probs_plan: plan from another oracle";
  Rt_obs.with_span ~cat:o.kind "analysis.subset" (fun () -> o.run_subset p x)

(* The engine-independent fallback: two independent subset evaluations on
   a private copy of [x] — exception-safe by construction (the caller's
   vector is never written). *)
let generic_pair o p ~input x =
  let x' = Array.copy x in
  x'.(input) <- 0.0;
  let pf0 = o.run_subset p x' in
  x'.(input) <- 1.0;
  let pf1 = o.run_subset p x' in
  (pf0, pf1)

let cofactor_pair o p ~input ~x =
  check_width o x "Oracle.cofactor_pair";
  if input < 0 || input >= Array.length x then
    invalid_arg "Oracle.cofactor_pair: input index out of range";
  if p.owner != o.fault_list then
    invalid_arg "Oracle.cofactor_pair: plan from another oracle";
  Rt_obs.incr o.cq_cofactor;
  Rt_obs.with_span ~cat:o.kind "cofactor_pair" (fun () ->
      match o.cofactor with
      | Some f ->
        Rt_obs.incr c_cof_incremental;
        f p ~input x
      | None ->
        Rt_obs.incr c_cof_full;
        generic_pair o p ~input x)

let subset p = p.key
let selected p = p.sel
let obs_mask p = p.obs_mask
let sp_mask p = p.sp_mask

let faults o = o.fault_list
let circuit o = o.c
let kind o = o.kind
let describe o = o.label
let exact_mask o = Array.copy o.exact
let proven_redundant o = Array.copy o.redundant
