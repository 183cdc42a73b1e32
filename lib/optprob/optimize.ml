module Oracle = Rt_testability.Oracle

type quantization =
  | No_quantization
  | Grid of float
  | Dyadic of int

type options = {
  confidence : float;
  alpha : float;
  max_sweeps : int;
  w_min : float;
  quantize : quantization;
  nf_min : int;
  start : float array option;
  start_jitter : float;
  objective : Objective.t;
}

let default_options =
  { confidence = 0.95;
    alpha = 0.01;
    max_sweeps = 12;
    w_min = 0.02;
    quantize = Grid 0.05;
    (* Floor on the NORMALIZE prefix the sweep optimizes over.  The bound
       search itself often needs only a few dozen faults, but optimizing
       too small a prefix lets faults just outside it drift hard on larger
       universes (c2670ish/c7552ish lose orders of magnitude with a floor
       of 64), so keep a generous safety margin. *)
    nf_min = 256;
    start = None;
    start_jitter = 0.06;
    objective = Objective.single }

type report = {
  weights : float array;
  n_initial : float;
  n_final : float;
  sweeps_run : int;
  history : float list;
  j_history : float list;
  undetectable : int array;
}

let apply_quantization q w =
  match q with
  | No_quantization -> w
  | Grid grid -> Array.map (fun v -> Rt_util.Prob.quantize ~grid v) w
  | Dyadic bits -> Array.map (fun v -> Rt_util.Prob.quantize_dyadic ~bits v) w

let c_newton_iters = Rt_obs.counter "minimize.newton_iterations"
let c_sweeps = Rt_obs.counter "optimize.sweeps"

(* Objective keys may contain ':' (e.g. "ndetect:2"); metric names stay in
   the [a-zA-Z0-9_.-] alphabet Prometheus-style consumers expect. *)
let metric_key key =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> c
      | _ -> '_')
    key

(* J_N over the detectable faults (the population NORMALIZE computes N
   from; p_f = 0 faults would only add a constant).  Every evaluation goes
   through the objective protocol's term — no direct exp here. *)
let j_detectable ~(objective : Objective.t) ~n pfs =
  Array.fold_left
    (fun acc p -> if p > 0.0 then acc +. objective.Objective.term ~n ~p else acc)
    0.0 pfs

let run ?(options = default_options) ?progress ?recorder ?keep oracle =
  Rt_obs.with_span ~cat:"phase" "optimize" @@ fun () ->
  let o = options in
  let obj = o.objective in
  let okey = metric_key obj.Objective.key in
  Rt_obs.incr (Rt_obs.counter (Printf.sprintf "objective.%s.runs" okey));
  let n_inputs = Array.length (Rt_circuit.Netlist.inputs (Oracle.circuit oracle)) in
  (match keep with
  | Some k when Array.length k <> Array.length (Oracle.faults oracle) ->
    invalid_arg "Optimize.run: keep mask width"
  | _ -> ());
  let x =
    match o.start with
    | Some s ->
      if Array.length s <> n_inputs then invalid_arg "Optimize.run: start vector width";
      Array.map (fun v -> Rt_util.Prob.interior o.w_min v) s
    | None ->
      (* The exact symmetric point X = 0.5 is a stationary saddle for
         equality-style cones (moving one operand bit alone changes
         nothing while its partner sits at 0.5), so coordinate descent
         would stall there.  A small deterministic jitter breaks the tie;
         the paper's multi-extremality discussion (§3.1) is precisely why
         a relative optimum from a perturbed start is the goal. *)
      Array.init n_inputs (fun i ->
          let phase = Float.of_int ((i * 37) mod 17) /. 16.0 in
          0.5 +. (o.start_jitter *. ((2.0 *. phase) -. 1.0)))
  in
  (* Out-of-scope faults (two-stage stage 2 optimizes survivors only) are
     held at p = 0, which NORMALIZE already treats as
     not-part-of-the-population.  Only the kept faults are queried: one
     plan over them, built once per run, scattered into a zero vector;
     by the plan contract that equals the full query masked to them. *)
  let probs =
    match keep with
    | None -> Oracle.probs oracle
    | Some k ->
      let kept = Array.of_seq (Seq.filter (fun f -> k.(f)) (Seq.init (Array.length k) Fun.id)) in
      let plan = Oracle.plan oracle kept in
      fun x ->
        let pf = Array.make (Array.length k) 0.0 in
        Array.iteri (fun j p -> pf.(kept.(j)) <- p) (Oracle.probs_plan oracle plan x);
        pf
  in
  (* ANALYSIS + NORMALIZE; keeps the raw p_f vector so the convergence
     trace can report J_N alongside N. *)
  let analyse x =
    let pf = probs x in
    (pf, Normalize.run ~objective:obj ~confidence:o.confidence ~nf_min:o.nf_min pf)
  in
  (* A recorded row carries the distribution of detection probabilities
     over the detectable faults, whose low tail is the [nf] hardest faults
     PREPARE works on. *)
  let record ~stage ~sweep ~j ~n ~y ~pf =
    match recorder with
    | Some r ->
      let detectable = Array.of_seq (Seq.filter (fun p -> p > 0.0) (Array.to_seq pf)) in
      Rt_obs.Convergence.record r ~pf:detectable ~objective:obj.Objective.key
        ~stage ~sweep ~j ~n ~y ()
    | None -> ()
  in
  (* The reported starting point is the conventional test (exactly 0.5
     everywhere), even though the search starts from the jittered vector. *)
  let n_initial = (snd (analyse (Array.make n_inputs 0.5))).Normalize.n in
  let pf0v, norm0 = analyse x in
  record ~stage:"initial" ~sweep:0
    ~j:(j_detectable ~objective:obj ~n:norm0.Normalize.n pf0v)
    ~n:norm0.Normalize.n ~y:x ~pf:pf0v;
  let best_x = ref (Array.copy x) in
  let best_n = ref n_initial in
  let history = ref [] in
  let j_history = ref [] in
  let sweeps = ref 0 in
  let norm = ref norm0 in
  let continue = ref (o.max_sweeps > 0) in
  while !continue do
    incr sweeps;
    Rt_obs.incr c_sweeps;
    (Rt_obs.with_span ~cat:"phase" "sweep" @@ fun () ->
     let n_for_sweep =
       let n = !norm.Normalize.n in
       if Float.is_finite n then n else 1e7
     in
     (* PREPARE: the two cofactor queries only need the hardest faults, so
        ask the oracle for exactly those — one [hard] array (hence one
        cached cone plan) per sweep, and both cofactors from a single
        [cofactor_pair] dispatch.  Engines with a fused implementation
        answer from an incremental base point that follows the sweep's
        one-coordinate moves; [x] is never mutated, so an exception leaves
        no torn weight vector behind. *)
     let hard = Normalize.hard_indices !norm in
     let plan = Oracle.plan oracle hard in
     for i = 0 to n_inputs - 1 do
       let saved = x.(i) in
       let pf0, pf1 =
         Rt_obs.with_span ~cat:"phase" "prepare" @@ fun () ->
         Oracle.cofactor_pair oracle plan ~input:i ~x
       in
       let r =
         Rt_obs.with_span ~cat:"phase" "minimize" @@ fun () ->
         Minimize.newton ~objective:obj ~lo:o.w_min ~hi:(1.0 -. o.w_min) ~n:n_for_sweep
           ~p0:pf0 ~p1:pf1 saved
       in
       Rt_obs.add c_newton_iters r.Minimize.iterations;
       x.(i) <- r.Minimize.y
     done;
     let pf', norm' = analyse x in
     let n_new = norm'.Normalize.n in
     history := n_new :: !history;
     (* The objective the sweep just minimised, evaluated where it ended:
        J at the sweep's working length over the post-sweep probabilities. *)
     let j_new = j_detectable ~objective:obj ~n:n_for_sweep pf' in
     j_history := j_new :: !j_history;
     record ~stage:"sweep" ~sweep:!sweeps ~j:j_new ~n:n_new ~y:x ~pf:pf';
     (match progress with Some f -> f ~sweep:!sweeps ~n:n_new | None -> ());
     if n_new < !best_n then begin
       best_n := n_new;
       best_x := Array.copy x
     end;
     let n_old = !norm.Normalize.n in
     norm := norm';
     let improved =
       match (Float.is_finite n_old, Float.is_finite n_new) with
       | false, true -> true
       | false, false -> false
       | true, false -> false
       | true, true -> (n_old -. n_new) /. Float.max 1.0 n_old > o.alpha
     in
     if (not improved) || !sweeps >= o.max_sweeps then continue := false)
  done;
  (* Quantise the best weights seen and re-evaluate honestly. *)
  let final_x = apply_quantization o.quantize !best_x in
  let pf_final, final_norm = analyse final_x in
  record ~stage:"final" ~sweep:!sweeps
    ~j:(j_detectable ~objective:obj ~n:final_norm.Normalize.n pf_final)
    ~n:final_norm.Normalize.n ~y:final_x ~pf:pf_final;
  (* If quantisation degraded below the unquantised best, report the
     quantised figures anyway — that is what the hardware will do. *)
  { weights = final_x;
    n_initial;
    n_final = final_norm.Normalize.n;
    sweeps_run = !sweeps;
    history = List.rev !history;
    j_history = List.rev !j_history;
    undetectable = final_norm.Normalize.undetectable }

let improvement r = r.n_initial /. Float.max 1.0 r.n_final

(* ---------------------------------------------------------------------- *)
(* Two-stage adaptive design. *)

type candidate = {
  cand_n1 : int;
  cand_survivors : int;
  cand_n2 : float;
  cand_total : float;
}

type two_stage_report = {
  ts_stage1 : report;
  ts_n1 : int;
  ts_survivors : int;
  ts_stage2 : report option;
  ts_n2 : float;
  ts_total : float;
  ts_single_n : float;
  ts_weights : float array;
  ts_candidates : candidate list;
}

let default_n1_grid = [ 0.0; 0.1; 0.25; 0.5; 0.75 ]

let two_stage ?(options = default_options) ?(n1_grid = default_n1_grid) ?n1
    ?(seed = 0x2757) ?(sim_cap = 65536) ?jobs ?block_words ?progress ?recorder oracle =
  Rt_obs.with_span ~cat:"phase" "two-stage" @@ fun () ->
  let o = options in
  let circuit = Oracle.circuit oracle in
  let faults = Oracle.faults oracle in
  let n_faults = Array.length faults in
  (* Stage 1: the ordinary single-stage design over the whole universe. *)
  let stage1 = run ~options ?progress ?recorder oracle in
  let n_single = stage1.n_final in
  let pf1 = Oracle.probs oracle stage1.weights in
  (* Only detectable faults can survive into stage 2, and a fault's
     first detection does not depend on which other faults are simulated
     alongside it, so the survivor simulations run over these alone. *)
  let detectable =
    Array.of_seq (Seq.filter (fun f -> pf1.(f) > 0.0) (Seq.init n_faults Fun.id))
  in
  let n_detectable = Array.length detectable in
  let sim_faults = Array.map (fun f -> faults.(f)) detectable in
  let candidates =
    match n1 with
    | Some v -> [ max 0 v ]
    | None ->
      let base = if Float.is_finite n_single then n_single else 0.0 in
      List.map (fun f -> Float.to_int (Float.ceil (f *. base))) n1_grid
      |> List.filter (fun v -> v >= 0 && v <= sim_cap)
      |> List.cons 0 |> List.sort_uniq compare
  in
  let evaluate cand_n1 =
    if cand_n1 = 0 then
      (* Degenerate split: no stage-1 patterns means every detectable
         fault survives into stage 2, whose optimization problem is then
         the stage-1 problem itself — the design collapses to the
         single-stage one.  Keeping this candidate in the grid makes
         "adaptive <= single-stage" hold by construction. *)
      ({ cand_n1 = 0; cand_survivors = n_detectable; cand_n2 = n_single;
         cand_total = n_single },
       None)
    else begin
      (* Deterministic ppsfp pass: which faults survive N1 patterns drawn
         with the stage-1 weights? *)
      let rng = Rt_util.Rng.create (seed + cand_n1) in
      let stats =
        Rt_sim.Fault_sim.simulate ?jobs ?block_words ~drop:true circuit sim_faults
          ~source:(Rt_sim.Pattern.weighted rng stage1.weights) ~n_patterns:cand_n1
      in
      let keep = Array.make n_faults false in
      Array.iteri
        (fun j f -> if stats.Rt_sim.Fault_sim.first_detect.(j) < 0 then keep.(f) <- true)
        detectable;
      let survivors = Array.fold_left (fun a k -> if k then a + 1 else a) 0 keep in
      if survivors = 0 then
        ({ cand_n1; cand_survivors = 0; cand_n2 = 0.0; cand_total = Float.of_int cand_n1 },
         None)
      else begin
        (* Stage 2: re-run MINIMIZE/OPTIMIZE on the survivors only, warm
           started from the stage-1 weights. *)
        let r2 = run ~options:{ o with start = Some stage1.weights } ~keep oracle in
        let n2 = r2.n_final in
        let total =
          if Float.is_finite n2 then Float.of_int cand_n1 +. n2 else Float.infinity
        in
        ({ cand_n1; cand_survivors = survivors; cand_n2 = n2; cand_total = total },
         Some r2)
      end
    end
  in
  (* Walk the splits in ascending N1, keeping the first strictly smallest
     total.  A split's total N1 + N2 is never below N1 (N2 >= 0, and
     rounding the sum cannot go below N1), so once N1 reaches the best
     total no remaining split can be chosen: stop there.  The chosen split
     is the one the whole grid would give, bit for bit. *)
  let rec search ((b, _) as best) evaluated = function
    | n1 :: rest when Float.of_int n1 < b.cand_total ->
      let ((c, _) as e) = evaluate n1 in
      search (if c.cand_total < b.cand_total then e else best) (c :: evaluated) rest
    | _ -> (best, List.rev evaluated)
  in
  let (best_c, best_r2), evaluated =
    match candidates with
    | first :: rest ->
      let ((c, _) as e) = evaluate first in
      search e [ c ] rest
    | [] -> assert false (* candidates never empty *)
  in
  { ts_stage1 = stage1;
    ts_n1 = best_c.cand_n1;
    ts_survivors = best_c.cand_survivors;
    ts_stage2 = best_r2;
    ts_n2 = best_c.cand_n2;
    ts_total = best_c.cand_total;
    ts_single_n = n_single;
    ts_weights =
      (match best_r2 with Some r -> r.weights | None -> stage1.weights);
    ts_candidates = evaluated }
