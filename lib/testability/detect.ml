(* Engine constructors for the oracle protocol.  The query mechanics —
   subset plans, keyed plan cache, counters, spans, the generic cofactor
   fallback — all live in [Oracle]; the COP sweep core
   and the incremental damage-cone evaluator live in [Cop_eval].  What
   remains here is one constructor per ANALYSIS engine, each registering
   its fused [cofactor_pair] when it has one:

   - COP: a shared incremental state re-evaluates only the flipped
     input's cone (and commits the patch when the optimizer moves the
     base point by one coordinate);
   - conditioned COP: per-assignment incremental states under the
     Shannon expansion (serial path only — the sharded path's partial
     sums have their own association order);
   - exact BDD: one paired traversal per generation returns both
     cofactors of every selected detection root;
   - STAFAN / Monte-Carlo: the weighted pattern batches drawn for the
     x_i = 0 run are recorded and replayed with input column [i] forced
     to all-ones, so both cofactors share one pattern generation. *)

module Netlist = Rt_circuit.Netlist
module Gate = Rt_circuit.Gate
module Fault = Rt_fault.Fault
module Bdd = Rt_bdd.Bdd
module Bdd_circuit = Rt_bdd.Bdd_circuit
module Parallel = Rt_util.Parallel
module Pattern = Rt_sim.Pattern

type engine =
  | Cop
  | Conditioned of { max_vars : int }
  | Bdd_exact of { node_limit : int }
  | Stafan of { n_patterns : int; seed : int }
  | Monte_carlo of { n_patterns : int; seed : int }

let c_bdd_nodes = Rt_obs.counter "bdd.nodes_allocated"

let no_flags faults = Array.make (Array.length faults) false

(* --- COP ------------------------------------------------------------------ *)

let make_cop ~jobs c faults =
  let st = Cop_eval.create ~jobs (Cop_eval.cones c) in
  Oracle.make ~kind:"cop" ~label:"cop" ~c ~faults ~exact:(no_flags faults)
    ~redundant:(no_flags faults)
    ~run:(fun x -> Cop_eval.probs ~jobs c faults x)
    ~run_subset:(fun plan x -> Cop_eval.probs_subset ~jobs c plan x)
    ~cofactor_pair:(fun plan ~input x -> Cop_eval.cofactor_pair st plan ~input x)
    ()

(* PREDICT-style (ABS86): Shannon-expand the COP estimate over the
   highest-fanout inputs — activation and observability are conditionally
   estimated per assignment, which removes the input-level correlations
   plain COP ignores.  The assignments are independent, so with [jobs > 1]
   they are sharded across domains (per-domain accumulators merged in
   chunk order; [jobs = 1] keeps the exact serial summation order). *)
let conditioned_expand ~jobs ~positions ~nf x eval_assignment =
  let k = Array.length positions in
  let n_assign = 1 lsl k in
  let accumulate ~lo ~hi =
    let acc = Array.make nf 0.0 in
    let x' = Array.copy x in
    for a = lo to hi - 1 do
      let weight = ref 1.0 in
      Array.iteri
        (fun j pos ->
          if (a lsr j) land 1 = 1 then begin
            x'.(pos) <- 1.0;
            weight := !weight *. x.(pos)
          end
          else begin
            x'.(pos) <- 0.0;
            weight := !weight *. (1.0 -. x.(pos))
          end)
        positions;
      if !weight > 0.0 then begin
        let pf = eval_assignment x' in
        Array.iteri (fun i v -> acc.(i) <- acc.(i) +. (!weight *. v)) pf
      end
    done;
    acc
  in
  if jobs <= 1 then accumulate ~lo:0 ~hi:n_assign
  else begin
    (* Each assignment is a full COP sweep — heavy enough that any split
       pays off, so only the hardware clamp applies. *)
    let parts = Array.make jobs [||] in
    Parallel.region ~label:"conditioned.expand" ~jobs ~n:n_assign (fun ~chunk ~lo ~hi ->
        parts.(chunk) <- accumulate ~lo ~hi);
    (* The region runs at most [n_assign] chunks, so chunk 0 always holds
       a partial; chunks it did not use stay empty and add nothing. *)
    let acc = parts.(0) in
    for chunk = 1 to jobs - 1 do
      Array.iteri (fun i v -> acc.(i) <- acc.(i) +. v) parts.(chunk)
    done;
    acc
  end

let conditioned_probs ?(jobs = 1) ~max_vars c faults x =
  let set = Signal_prob.conditioning_set ~max_vars c in
  if Array.length set = 0 then Cop_eval.probs ~jobs c faults x
  else begin
    let positions = Array.map (fun i -> Netlist.input_index c i) set in
    conditioned_expand ~jobs ~positions ~nf:(Array.length faults) x (fun x' ->
        Cop_eval.probs c faults x')
  end

let conditioned_probs_subset ?(jobs = 1) ~max_vars c plan x =
  let set = Signal_prob.conditioning_set ~max_vars c in
  if Array.length set = 0 then Cop_eval.probs_subset ~jobs c plan x
  else begin
    let positions = Array.map (fun i -> Netlist.input_index c i) set in
    conditioned_expand ~jobs ~positions ~nf:(Array.length (Oracle.selected plan)) x (fun x' ->
        Cop_eval.probs_subset c plan x')
  end

(* Fused conditioned cofactors (serial expansion only): one incremental
   COP state per live assignment, all sharing one damage-cone table.
   When the flipped input is itself a conditioning variable its value is
   fixed by the assignment, so one evaluation serves both cofactors and
   only the Shannon weights differ (the x_i factor becomes 0.0 or 1.0 —
   bit-identical to the reference loop's [x''.(pos)] factor, since
   multiplying by 1.0 is exact and a 0.0 factor zeroes the product and
   skips the assignment).  Otherwise
   the assignment's state answers both cofactors from one damage cone. *)
let conditioned_cofactor ~positions c =
  let n_assign = 1 lsl Array.length positions in
  let states = Array.make n_assign None in
  let cones = Cop_eval.cones c in
  let state a =
    match states.(a) with
    | Some s -> s
    | None ->
      let s = Cop_eval.create ~jobs:1 cones in
      states.(a) <- Some s;
      s
  in
  let input_conditioned input = Array.exists (fun p -> p = input) positions in
  fun plan ~input x ->
    let nf = Array.length (Oracle.selected plan) in
    let acc0 = Array.make nf 0.0 and acc1 = Array.make nf 0.0 in
    let fixed = input_conditioned input in
    let x' = Array.copy x in
    for a = 0 to n_assign - 1 do
      let w0 = ref 1.0 and w1 = ref 1.0 in
      Array.iteri
        (fun j pos ->
          let bit = (a lsr j) land 1 = 1 in
          x'.(pos) <- (if bit then 1.0 else 0.0);
          if pos = input then begin
            (* factor = the cofactor's value of x_i, per branch *)
            if bit then begin
              w0 := !w0 *. 0.0;
              w1 := !w1 *. 1.0
            end
            else begin
              w0 := !w0 *. 1.0;
              w1 := !w1 *. 0.0
            end
          end
          else begin
            let f = if bit then x.(pos) else 1.0 -. x.(pos) in
            w0 := !w0 *. f;
            w1 := !w1 *. f
          end)
        positions;
      if !w0 > 0.0 || !w1 > 0.0 then begin
        if fixed then begin
          let pf = Cop_eval.eval (state a) plan x' in
          if !w0 > 0.0 then Array.iteri (fun i v -> acc0.(i) <- acc0.(i) +. (!w0 *. v)) pf;
          if !w1 > 0.0 then Array.iteri (fun i v -> acc1.(i) <- acc1.(i) +. (!w1 *. v)) pf
        end
        else begin
          let pf0, pf1 = Cop_eval.cofactor_pair (state a) plan ~input x' in
          Array.iteri (fun i v -> acc0.(i) <- acc0.(i) +. (!w0 *. v)) pf0;
          Array.iteri (fun i v -> acc1.(i) <- acc1.(i) +. (!w1 *. v)) pf1
        end
      end
    done;
    (acc0, acc1)

let make_conditioned ~jobs ~max_vars c faults =
  let set = Signal_prob.conditioning_set ~max_vars c in
  let k = Array.length set in
  let cofactor =
    if k = 0 then begin
      (* No conditioning variables: the engine degenerates to plain COP,
         so a plain incremental state is the fused path. *)
      let st = Cop_eval.create ~jobs (Cop_eval.cones c) in
      Some (fun plan ~input x -> Cop_eval.cofactor_pair st plan ~input x)
    end
    else if jobs = 1 && k <= 8 then begin
      let positions = Array.map (fun i -> Netlist.input_index c i) set in
      Some (conditioned_cofactor ~positions c)
    end
    else
      (* Sharded expansion sums per-chunk partials whose association
         order the fused path cannot reproduce bit-exactly — let the
         protocol fall back to two plain subset queries. *)
      None
  in
  Oracle.make ~kind:"conditioned"
    ~label:(Printf.sprintf "conditioned(cop, %d vars)" k)
    ~c ~faults ~exact:(no_flags faults) ~redundant:(no_flags faults)
    ~run:(fun x -> conditioned_probs ~jobs ~max_vars c faults x)
    ~run_subset:(fun plan x -> conditioned_probs_subset ~jobs ~max_vars c plan x)
    ?cofactor_pair:cofactor ()

(* Exact engine.  Good-circuit BDDs are built once per "generation"; per
   fault, only the chain from its site to the root of its fanout-free
   region ([Cone.ffr_roots]) is rebuilt with the fault injected.  Every
   path from the site to an output passes through that root [r], and a
   non-root node of a region has exactly one reader, so the chain is the
   site's only route out and the outputs see the fault only as a flip of
   [r].  The detection BDD is therefore
     (good_r XOR bad_r) AND obs_r,   obs_r = OR_o (good_o XOR good_o[r := NOT r]),
   where [obs_r] depends on the root alone and is built once per
   generation, on the first fault that needs it.  This is the same
   Boolean function as the boolean difference of the whole faulty
   circuit, and BDDs are canonical, so every probability, cofactor pair
   and redundancy flag equals the full rebuild's bit for bit.

   The shared unique table fills up with per-fault intermediates, so when
   it overflows a fresh generation (new manager, same variable order,
   rebuilt good circuit, empty observability memo) continues with the
   remaining faults — only a fault too large for an empty manager falls
   back to the COP estimate. *)
type generation = {
  m : Bdd.manager;
  good : Bdd.t array;
  obs : Bdd.t option array;  (** obs_r per region root, [None] until built *)
  flipped : Bdd.t array;  (** scratch: node values with one root inverted *)
}

let make_bdd ~node_limit ?(max_generations = 6) c faults =
  let nf = Array.length faults in
  let exact = Array.make nf false in
  let redundant = Array.make nf false in
  let order = Bdd_circuit.dfs_order c in
  let n = Netlist.size c in
  let outputs = Netlist.outputs c in
  let root_of = Rt_circuit.Cone.ffr_roots c in
  let new_generation () =
    let m = Bdd.manager ~node_limit ~nvars:(Array.length (Netlist.inputs c)) () in
    { m;
      good = Bdd_circuit.build_into m ~order c;
      obs = Array.make n None;
      flipped = Array.make n (Bdd.zero m) }
  in
  (* [dirty] marks the transitive fanout of the root being flipped, and
     only while its observability is built: the marks are cleared on the
     way out, [Bdd.Limit_exceeded] included, and the memo entry is set
     only once the build has finished. *)
  let dirty = Array.make n false in
  let cone = Array.make n 0 in
  let observability g r =
    match g.obs.(r) with
    | Some o -> o
    | None ->
      let m = g.m in
      let size = ref 0 in
      let rec mark i =
        if not dirty.(i) then begin
          dirty.(i) <- true;
          cone.(!size) <- i;
          incr size;
          Array.iter mark (Netlist.fanout c i)
        end
      in
      mark r;
      let nodes = Array.sub cone 0 !size in
      let build () =
        (* Fanin ids are below the reader's, so ascending ids are a
           topological order of the cone. *)
        Array.sort compare nodes;
        g.flipped.(r) <- Bdd.not_ m g.good.(r);
        for p = 1 to Array.length nodes - 1 do
          let i = nodes.(p) in
          let args =
            Array.map (fun j -> if dirty.(j) then g.flipped.(j) else g.good.(j)) (Netlist.fanin c i)
          in
          g.flipped.(i) <- Bdd.apply_kind m (Netlist.kind c i) args
        done;
        Array.fold_left
          (fun acc o ->
            if dirty.(o) then Bdd.or_ m acc (Bdd.xor_ m g.good.(o) g.flipped.(o)) else acc)
          (Bdd.zero m) outputs
      in
      let clear () = Array.iter (fun i -> dirty.(i) <- false) nodes in
      let o = Fun.protect build ~finally:clear in
      g.obs.(r) <- Some o;
      o
  in
  let build_fault g f =
    let m = g.m and good = g.good in
    let const v = if v then Bdd.one m else Bdd.zero m in
    (* The faulty value of [node] read by the region's next gate, up to
       the root. *)
    let rec climb node value =
      if root_of.(node) = node then (node, value)
      else begin
        let reader = (Netlist.fanout c node).(0) in
        let args =
          Array.map (fun j -> if j = node then value else good.(j)) (Netlist.fanin c reader)
        in
        climb reader (Bdd.apply_kind m (Netlist.kind c reader) args)
      end
    in
    let r, bad_r =
      match f.Fault.site with
      | Fault.Stem s -> climb s (const f.Fault.stuck)
      | Fault.Branch (gate, k) ->
        let args = Array.map (fun j -> good.(j)) (Netlist.fanin c gate) in
        args.(k) <- const f.Fault.stuck;
        climb gate (Bdd.apply_kind m (Netlist.kind c gate) args)
    in
    let activated = Bdd.xor_ m good.(r) bad_r in
    if Bdd.is_zero activated then activated else Bdd.and_ m activated (observability g r)
  in
  (* detect_roots.(fi) = Some (generation, root). *)
  let detect_roots = Array.make nf None in
  (* Built most-recent-first; reversed into an array once construction is
     done (the former [!gens @ [gen]] append was quadratic in generations). *)
  let generations_rev = ref [] in
  let total_nodes = ref 0 in
  Rt_obs.with_span ~cat:"detect" "bdd.build" (fun () ->
      match new_generation () with
      | exception Bdd.Limit_exceeded -> ()
      | first_gen ->
        let current = ref first_gen in
        let gen_idx = ref 0 in
        let fresh = ref true in
        let gen_yield = ref 0 in
        (* A generation that places almost no faults before overflowing means
           the per-fault BDDs are intrinsically large for this circuit;
           further generations would burn time for nothing. *)
        let min_yield = max 8 (nf / 20) in
        generations_rev := [ first_gen ];
        let fi = ref 0 in
        while !fi < nf do
          let f = faults.(!fi) in
          let g = !current in
          (match build_fault g f with
           | detect ->
             detect_roots.(!fi) <- Some (!gen_idx, detect);
             exact.(!fi) <- true;
             if Bdd.is_zero detect then redundant.(!fi) <- true;
             fresh := false;
             incr gen_yield;
             incr fi
           | exception Bdd.Limit_exceeded ->
             if !fresh then begin
               (* Too big even for an empty manager: estimate this fault. *)
               incr fi
             end
             else if List.length !generations_rev >= max_generations || !gen_yield < min_yield
             then fi := nf
             else begin
               match new_generation () with
               | exception Bdd.Limit_exceeded -> fi := nf
               | gen ->
                 total_nodes := !total_nodes + Bdd.node_count g.m;
                 current := gen;
                 incr gen_idx;
                 fresh := true;
                 gen_yield := 0;
                 generations_rev := gen :: !generations_rev
             end)
        done;
        total_nodes := !total_nodes + Bdd.node_count !current.m);
  let generations = Array.of_list (List.rev !generations_rev) in
  Rt_obs.add c_bdd_nodes !total_nodes;
  let x_of_var_table x =
    let t = Array.make (max 1 (Array.length order)) 0.5 in
    Array.iteri (fun i v -> t.(v) <- x.(i)) order;
    t
  in
  (* Selected detection roots of one generation, as (position-in-subset,
     root) arrays — a generation none of the selected faults landed in is
     not traversed at all. *)
  let gen_roots subset gi =
    let idxs = ref [] and roots = ref [] in
    Array.iteri
      (fun j fi ->
        match detect_roots.(fi) with
        | Some (g, root) when g = gi ->
          idxs := j :: !idxs;
          roots := root :: !roots
        | Some _ | None -> ())
      subset;
    (Array.of_list !idxs, Array.of_list !roots)
  in
  (* Every generation's (fault indices, detection roots), for full queries. *)
  let gen_all =
    let all = Array.init nf Fun.id in
    Array.mapi (fun gi _ -> gen_roots all gi) generations
  in
  let run x =
    let x_of_var = x_of_var_table x in
    let out = Array.make nf 0.0 in
    (* Batch the prob evaluation per generation to share memo tables. *)
    Array.iteri
      (fun gi { m; _ } ->
        let fis, roots = gen_all.(gi) in
        if Array.length roots > 0 then begin
          let vals = Bdd.prob_many m roots (fun v -> x_of_var.(v)) in
          Array.iteri (fun j fi -> out.(fi) <- vals.(j)) fis
        end)
      generations;
    if Array.exists (fun r -> r = None) detect_roots then begin
      let fb = Cop_eval.probs c faults x in
      Array.iteri (fun fi r -> if r = None then out.(fi) <- fb.(fi)) detect_roots
    end;
    out
  in
  let run_subset plan x =
    let subset = Oracle.subset plan in
    let x_of_var = x_of_var_table x in
    let out = Array.make (Array.length subset) 0.0 in
    Array.iteri
      (fun gi { m; _ } ->
        let idxs, roots = gen_roots subset gi in
        if Array.length roots > 0 then begin
          let vals = Bdd.prob_many m roots (fun v -> x_of_var.(v)) in
          Array.iteri (fun p j -> out.(j) <- vals.(p)) idxs
        end)
      generations;
    if Array.exists (fun fi -> detect_roots.(fi) = None) subset then begin
      let fb = Cop_eval.probs_subset c plan x in
      Array.iteri (fun j fi -> if detect_roots.(fi) = None then out.(j) <- fb.(j)) subset
    end;
    out
  in
  (* Both cofactors of every selected root from one paired traversal per
     generation.  The shared scalar sub-traversal above the cofactor
     variable is what the two independent evaluations would each have
     repeated.  Faults without a BDD (None roots) fall back to the same
     two masked COP sweeps the generic path would run. *)
  let cofactor plan ~input x =
    let subset = Oracle.subset plan in
    let x_of_var = x_of_var_table x in
    let fvar = order.(input) in
    let ns = Array.length subset in
    let out0 = Array.make ns 0.0 and out1 = Array.make ns 0.0 in
    Array.iteri
      (fun gi { m; _ } ->
        let idxs, roots = gen_roots subset gi in
        if Array.length roots > 0 then begin
          let pairs = Bdd.prob_pair_many m roots ~var:fvar (fun v -> x_of_var.(v)) in
          Array.iteri
            (fun p j ->
              let v0, v1 = pairs.(p) in
              out0.(j) <- v0;
              out1.(j) <- v1)
            idxs
        end)
      generations;
    if Array.exists (fun fi -> detect_roots.(fi) = None) subset then begin
      let x' = Array.copy x in
      x'.(input) <- 0.0;
      let fb0 = Cop_eval.probs_subset c plan x' in
      x'.(input) <- 1.0;
      let fb1 = Cop_eval.probs_subset c plan x' in
      Array.iteri
        (fun j fi ->
          if detect_roots.(fi) = None then begin
            out0.(j) <- fb0.(j);
            out1.(j) <- fb1.(j)
          end)
        subset
    end;
    (out0, out1)
  in
  let n_exact = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 exact in
  Oracle.make ~kind:"bdd"
    ~label:
      (Printf.sprintf "bdd-exact(%d/%d exact, %d generations, %d nodes)" n_exact nf
         (Array.length generations) !total_nodes)
    ~c ~faults ~exact ~redundant ~run ~run_subset ~cofactor_pair:cofactor ()

(* --- Pattern-counting engines ---------------------------------------------

   STAFAN and Monte-Carlo share the cofactor trick: [Rng.biased_word]
   consumes no randomness for a probability of exactly 0.0 or 1.0, so the
   pattern streams for x with x_i := 0.0 and x_i := 1.0 are identical in
   every column except [i] (all-zeros vs all-ones).  Recording the batches
   of the x_i = 0 run and replaying them with column [i] forced to -1L
   therefore reproduces the x_i = 1 run's batches bit-exactly while paying
   for pattern generation once.  Both simulators pull the source only from
   their serial batch loop, so the stateful sources are safe at any
   [jobs]. *)

let recording_source base =
  let recorded = ref [] in
  let source () =
    let b = base () in
    recorded := b :: !recorded;
    b
  in
  (source, recorded)

let replaying_source ~input base recorded =
  let remaining = ref (List.rev !recorded) in
  fun () ->
    let b =
      match !remaining with
      | b :: rest ->
        remaining := rest;
        b
      | [] -> base ()
    in
    let bits = Array.copy b.Pattern.bits in
    bits.(input) <- -1L;
    { b with Pattern.bits }

let make_stafan ~n_patterns ~seed c faults =
  let count x =
    let rng = Rt_util.Rng.create seed in
    let source = Pattern.weighted rng x in
    Stafan.count c ~source ~n_patterns
  in
  let cofactor plan ~input x =
    let sel = Oracle.selected plan in
    let mask = Oracle.obs_mask plan in
    let x0 = Array.copy x in
    x0.(input) <- 0.0;
    let rng = Rt_util.Rng.create seed in
    let base = Pattern.weighted rng x0 in
    let record, recorded = recording_source base in
    let counts0 = Stafan.count c ~source:record ~n_patterns in
    let pf0 = Stafan.detection_probs_subset c ~mask counts0 sel in
    let counts1 =
      Stafan.count c ~source:(replaying_source ~input base recorded) ~n_patterns
    in
    let pf1 = Stafan.detection_probs_subset c ~mask counts1 sel in
    (pf0, pf1)
  in
  Oracle.make ~kind:"stafan"
    ~label:(Printf.sprintf "stafan(%d patterns)" n_patterns)
    ~c ~faults ~exact:(no_flags faults) ~redundant:(no_flags faults)
    ~run:(fun x -> Stafan.detection_probs c (count x) faults)
    ~run_subset:
      (fun plan x ->
        Stafan.detection_probs_subset c ~mask:(Oracle.obs_mask plan) (count x)
          (Oracle.selected plan))
    ~cofactor_pair:cofactor ()

let make_mc ~jobs ~n_patterns ~seed c faults =
  let cofactor plan ~input x =
    let sel = Oracle.selected plan in
    let x0 = Array.copy x in
    x0.(input) <- 0.0;
    let rng = Rt_util.Rng.create seed in
    let base = Pattern.weighted rng x0 in
    let record, recorded = recording_source base in
    let pf0 = Rt_sim.Detect_mc.detection_probs_source ~jobs c sel ~source:record ~n_patterns in
    let pf1 =
      Rt_sim.Detect_mc.detection_probs_source ~jobs c sel
        ~source:(replaying_source ~input base recorded)
        ~n_patterns
    in
    (pf0, pf1)
  in
  Oracle.make ~kind:"mc"
    ~label:(Printf.sprintf "monte-carlo(%d patterns)" n_patterns)
    ~c ~faults ~exact:(no_flags faults) ~redundant:(no_flags faults)
    ~run:(fun x -> Rt_sim.Detect_mc.detection_probs ~jobs c faults ~weights:x ~n_patterns ~seed)
    ~run_subset:
      (fun plan x ->
        (* Without dropping, each fault's detection counts depend only on
           the shared pattern stream, so simulating the selected faults
           alone reproduces the full run's estimates exactly. *)
        Rt_sim.Detect_mc.detection_probs ~jobs c (Oracle.selected plan) ~weights:x ~n_patterns
          ~seed)
    ~cofactor_pair:cofactor ()

let make ?jobs engine c faults =
  let jobs = Parallel.resolve_jobs jobs in
  match engine with
  | Cop -> make_cop ~jobs c faults
  | Conditioned { max_vars } -> make_conditioned ~jobs ~max_vars c faults
  | Bdd_exact { node_limit } -> make_bdd ~node_limit c faults
  | Stafan { n_patterns; seed } -> make_stafan ~n_patterns ~seed c faults
  | Monte_carlo { n_patterns; seed } -> make_mc ~jobs ~n_patterns ~seed c faults
