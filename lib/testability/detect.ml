(* Engine constructors for the oracle protocol.  The query mechanics —
   subset plans, counters, spans, the generic cofactor fallback — all live
   in [Oracle]; the COP sweep core and the incremental damage-cone
   evaluator live in [Cop_eval].  What remains here is one constructor per
   ANALYSIS engine.  Each has one evaluation kernel, its plan query; its
   full query is that kernel over an all-faults plan built here, once.
   Each also registers its fused [cofactor_pair] when it has one:

   - COP: a shared incremental state re-evaluates only the flipped
     input's cone (and commits the patch when the optimizer moves the
     base point by one coordinate);
   - conditioned COP: per-assignment incremental states under the
     Shannon expansion (up to 8 conditioning variables);
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

(* Every engine goes through here: its full query is its plan query over
   all of its faults, on a plan built once per engine.  The estimators
   flag no fault exact or redundant. *)
let engine_oracle ~kind ~label ~c ~faults ?exact ?redundant ~run_subset ?cofactor_pair () =
  let flags = function Some f -> f | None -> Array.make (Array.length faults) false in
  let all = Oracle.make_plan c faults (Array.init (Array.length faults) Fun.id) in
  Oracle.make ~kind ~label ~c ~faults ~exact:(flags exact) ~redundant:(flags redundant)
    ~run:(run_subset all) ~run_subset ?cofactor_pair ()

(* --- COP ------------------------------------------------------------------ *)

let make_cop ~jobs c faults =
  let cones = Cop_eval.cones c in
  let st = Cop_eval.create ~jobs cones in
  engine_oracle ~kind:"cop" ~label:"cop" ~c ~faults
    ~run_subset:(fun plan x -> Cop_eval.probs_plan ~jobs cones plan x)
    ~cofactor_pair:(fun plan ~input x -> Cop_eval.cofactor_pair st plan ~input x)
    ()

(* PREDICT-style (ABS86): Shannon-expand the COP estimate over the
   highest-fanout inputs — activation and observability are conditionally
   estimated per assignment, which removes the input-level correlations
   plain COP ignores.  The assignments are summed in ascending order at
   every job count ([jobs] only shares each sweep's per-fault step), so
   the result never depends on [jobs]. *)
let conditioned_expand ~positions ~nf x eval_assignment =
  let acc = Array.make nf 0.0 in
  let x' = Array.copy x in
  for a = 0 to (1 lsl Array.length positions) - 1 do
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

(* Fused conditioned cofactors: one incremental COP state per live
   assignment, all sharing one damage-cone table, summed in the
   expansion's order.
   When the flipped input is itself a conditioning variable its value is
   fixed by the assignment, so one evaluation serves both cofactors and
   only the Shannon weights differ (the x_i factor becomes 0.0 or 1.0 —
   bit-identical to the reference loop's [x''.(pos)] factor, since
   multiplying by 1.0 is exact and a 0.0 factor zeroes the product and
   skips the assignment).  Otherwise
   the assignment's state answers both cofactors from one damage cone. *)
let conditioned_cofactor ~jobs ~positions cones =
  let n_assign = 1 lsl Array.length positions in
  let states = Array.make n_assign None in
  let state a =
    match states.(a) with
    | Some s -> s
    | None ->
      let s = Cop_eval.create ~jobs cones in
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

let conditioning_set ?(max_vars = 8) c =
  if max_vars < 0 || max_vars > 16 then invalid_arg "Detect.conditioning_set";
  Netlist.inputs c |> Array.to_list
  |> List.filter (fun i -> Array.length (Netlist.fanout c i) >= 2)
  |> List.sort (fun a b ->
         compare (Array.length (Netlist.fanout c b)) (Array.length (Netlist.fanout c a)))
  |> List.filteri (fun k _ -> k < max_vars)
  |> Array.of_list

let make_conditioned ~jobs ~max_vars c faults =
  let set = conditioning_set ~max_vars c in
  let k = Array.length set in
  let positions = Array.map (fun i -> Netlist.input_index c i) set in
  let cones = Cop_eval.cones c in
  let run_subset plan x =
    if k = 0 then Cop_eval.probs_plan ~jobs cones plan x
    else
      conditioned_expand ~positions ~nf:(Array.length (Oracle.selected plan)) x (fun x' ->
          Cop_eval.probs_plan ~jobs cones plan x')
  in
  let cofactor =
    if k = 0 then begin
      (* No conditioning variables: the engine degenerates to plain COP,
         so a plain incremental state is the fused path. *)
      let st = Cop_eval.create ~jobs cones in
      Some (fun plan ~input x -> Cop_eval.cofactor_pair st plan ~input x)
    end
    else if k <= 8 then Some (conditioned_cofactor ~jobs ~positions cones)
    else
      (* Past 8 variables the 2^k per-assignment states, each holding
         node-sized arrays, are not kept: the protocol falls back to two
         plain plan queries. *)
      None
  in
  engine_oracle ~kind:"conditioned"
    ~label:(Printf.sprintf "conditioned(cop, %d vars)" k)
    ~c ~faults ~run_subset ?cofactor_pair:cofactor ()

(* Exact engine.  Good-circuit BDDs are built once per "generation"; a
   fault's detection function is assembled from pieces that depend on its
   fanout-free region ([Cone.ffr_roots]), not on the fault.  Every path
   from a site to an output passes through the root [r] of the site's
   region, and a non-root node of a region has exactly one reader, read on
   one pin, so the outputs see the fault only as a flip of [r]:
     detect = ((good_x XOR v) AND D_x) AND obs_r
   for a stem stuck-at-[v] fault on [x]: [good_x XOR v] says the fault
   flips [x], the region difference [D_x] says the flip reaches [r], and
   the observability [obs_r] says a flip of [r] reaches an output.

   - [D_r = 1] and [D_x = D_reader AND sens(reader, pin)], built once per
     node and generation.  A branch fault on pin [k] of [gate] uses
     [D_gate AND sens(gate, k)] in place of [D_x].
   - [obs_r = OR_o Delta_o] over the outputs in [r]'s fanout cone, where
     [Delta_g = good_g XOR flipped_g] with [r] inverted ([observability]).
     It is built once per root and generation, on the first fault that
     needs it.

   Each piece is a Boolean function fixed by the circuit, so the product
   is the boolean difference of the whole faulty circuit whichever route
   built it.  BDDs are canonical under the fixed variable order, so every
   probability, cofactor pair and redundancy flag equals a full rebuild's
   bit for bit; only node counts and seconds depend on the route.

   Each generation's manager starts with room for 128 nodes per fault, at
   most 2^16 (3.5 MB of tables) and fewer when the node limit is lower:
   the paper circuits' exact builds make 42 to 200 nodes per fault (S1
   76, c499ish 1906).  Doubling up from 1024 slots allocated each table
   six times over on S1 and rehashed the store at every step, which cost
   about 30% of its build and 40% of the heap peak of a process that
   builds it repeatedly.  The per-fault sizing keeps a tiny circuit from
   paying for 2^16 slots.

   The shared unique table fills up with per-fault intermediates, so when
   it overflows a fresh generation (new manager, same variable order,
   rebuilt good circuit, empty memos) continues with the remaining faults
   — only a fault too large for an empty manager falls back to the COP
   estimate. *)

(* The condition under which gate [i] passes a flip on pin [k] to its
   output, the other pins at their [good] values: the AND of the others
   for AND/NAND, the AND of their complements (built as the complement of
   their OR) for OR/NOR, and 1 for BUF/NOT/XOR/XNOR. *)
let sens m c good i k =
  let fanin = Netlist.fanin c i in
  let others op init =
    let acc = ref init in
    Array.iteri (fun p j -> if p <> k then acc := op m !acc good.(j)) fanin;
    !acc
  in
  match Netlist.kind c i with
  | Gate.And | Gate.Nand -> others Bdd.and_ (Bdd.one m)
  | Gate.Or | Gate.Nor -> Bdd.not_ m (others Bdd.or_ (Bdd.zero m))
  | Gate.Buf | Gate.Not | Gate.Xor | Gate.Xnor -> Bdd.one m
  | Gate.Input | Gate.Const0 | Gate.Const1 -> invalid_arg "Detect.sens"

type obs_build = Delta | Flipped

(* Scratch for walking a root's fanout cone: [dirty] marks the cone, and
   only while [with_cone] runs; [cone] lists its nodes. *)
type cone_scratch = { dirty : bool array; cone : int array }

let cone_scratch c =
  let n = Netlist.size c in
  { dirty = Array.make n false; cone = Array.make n 0 }

(* [f] over the transitive fanout of [r] in ascending ids, [r] first.
   Fanin ids are below the reader's, so that is a topological order.  The
   marks are cleared on the way out, [Bdd.Limit_exceeded] included. *)
let with_cone s c r f =
  let size = ref 0 in
  let rec mark i =
    if not s.dirty.(i) then begin
      s.dirty.(i) <- true;
      s.cone.(!size) <- i;
      incr size;
      Array.iter mark (Netlist.fanout c i)
    end
  in
  mark r;
  let nodes = Array.sub s.cone 0 !size in
  Fun.protect
    (fun () ->
      Array.sort compare nodes;
      f nodes)
    ~finally:(fun () -> Array.iter (fun i -> s.dirty.(i) <- false) nodes)

let dirty_pins s c i =
  Array.fold_left (fun acc j -> if s.dirty.(j) then acc + 1 else acc) 0 (Netlist.fanin c i)

let is_linear c i =
  match Netlist.kind c i with
  | Gate.Buf | Gate.Not | Gate.Xor | Gate.Xnor -> true
  | _ -> false

(* A root takes [Flipped] when the cone's reconvergent non-linear gates
   (two or more dirty pins) outnumber its linear ones (BUF/NOT/XOR/XNOR):
   each reconvergent gate costs the Delta rule an XOR per dirty pin and
   one more, and on c1355ish's NAND-expanded XORs those intermediates
   overflow the node limit before faults that [Flipped] places (50
   against 74 of 2252 at 2M nodes). *)
let choose_build s c nodes =
  let reconvergent = ref 0 and linear = ref 0 in
  for p = 1 to Array.length nodes - 1 do
    let i = nodes.(p) in
    if is_linear c i then incr linear else if dirty_pins s c i >= 2 then incr reconvergent
  done;
  if !reconvergent > !linear then Flipped else Delta

let obs_build_for c r =
  let s = cone_scratch c in
  with_cone s c r (choose_build s c)

(* [obs_r], the condition under which inverting node [r] flips some
   output, built over [r]'s fanout cone one of two ways, each node's value
   going to [value]:

   - [Delta]: propagate [Delta_g = good_g XOR flipped_g] from
     [Delta_r = 1].  A linear gate gets the XOR of its dirty pins'
     Deltas, so with one dirty pin it passes [Delta_a] on with no apply at
     all.  Another gate with one dirty pin [a] gets
     [Delta_a AND sens(g, pin)]; where flips reconverge it needs its
     flipped value, [good_g XOR apply(good_a XOR Delta_a, ...)].
     [obs_r = OR_o Delta_o].
   - [Flipped]: rebuild the cone with [r] inverted and XOR with the good
     circuit at every dirty output. *)
let observability ?build s ~value:v c m good r =
  let delta i =
    let fanin = Netlist.fanin c i in
    if is_linear c i then
      Array.fold_left
        (fun acc j -> if s.dirty.(j) then Bdd.xor_ m acc v.(j) else acc)
        (Bdd.zero m) fanin
    else if dirty_pins s c i = 1 then begin
      let k = ref 0 in
      while not s.dirty.(fanin.(!k)) do incr k done;
      Bdd.and_ m v.(fanin.(!k)) (sens m c good i !k)
    end
    else
      let args =
        Array.map (fun j -> if s.dirty.(j) then Bdd.xor_ m good.(j) v.(j) else good.(j)) fanin
      in
      Bdd.xor_ m good.(i) (Bdd.apply_kind m (Netlist.kind c i) args)
  in
  let flipped i =
    Bdd.apply_kind m (Netlist.kind c i)
      (Array.map (fun j -> if s.dirty.(j) then v.(j) else good.(j)) (Netlist.fanin c i))
  in
  with_cone s c r (fun nodes ->
      let build = match build with Some b -> b | None -> choose_build s c nodes in
      let step, output_delta =
        match build with
        | Delta ->
          v.(r) <- Bdd.one m;
          (delta, fun o -> v.(o))
        | Flipped ->
          v.(r) <- Bdd.not_ m good.(r);
          (flipped, fun o -> Bdd.xor_ m good.(o) v.(o))
      in
      for p = 1 to Array.length nodes - 1 do
        v.(nodes.(p)) <- step nodes.(p)
      done;
      Array.fold_left
        (fun acc o -> if s.dirty.(o) then Bdd.or_ m acc (output_delta o) else acc)
        (Bdd.zero m) (Netlist.outputs c))

let root_observability ?build c m ~good r =
  observability ?build (cone_scratch c) ~value:(Array.make (Netlist.size c) (Bdd.zero m)) c m good r

type generation = {
  m : Bdd.manager;
  good : Bdd.t array;
  diff : Bdd.t option array;  (** D_x per node, [None] until built *)
  obs : Bdd.t option array;  (** obs_r per region root, [None] until built *)
  value : Bdd.t array;  (** scratch: Delta or flipped values of one cone *)
}

let make_bdd ~node_limit ?(max_generations = 6) c faults =
  let nf = Array.length faults in
  let exact = Array.make nf false in
  let redundant = Array.make nf false in
  let order = Bdd_circuit.dfs_order c in
  let n = Netlist.size c in
  let root_of = Rt_circuit.Cone.ffr_roots c in
  let new_generation () =
    let m =
      Bdd.manager ~node_limit
        ~capacity:(min (1 lsl 16) (128 * nf))
        ~nvars:(Array.length (Netlist.inputs c))
        ()
    in
    { m;
      good = Bdd_circuit.build_into m ~order c;
      diff = Array.make n None;
      obs = Array.make n None;
      value = Array.make n (Bdd.zero m) }
  in
  let scratch = cone_scratch c in
  (* Memo entries are set only once their build has finished. *)
  let obs g r =
    match g.obs.(r) with
    | Some o -> o
    | None ->
      let o = observability scratch ~value:g.value c g.m g.good r in
      g.obs.(r) <- Some o;
      o
  in
  let rec region_diff g x =
    if root_of.(x) = x then Bdd.one g.m
    else begin
      match g.diff.(x) with
      | Some d -> d
      | None ->
        let reader = (Netlist.fanout c x).(0) in
        let fanin = Netlist.fanin c reader in
        let k = ref 0 in
        while fanin.(!k) <> x do incr k done;
        let d = Bdd.and_ g.m (region_diff g reader) (sens g.m c g.good reader !k) in
        g.diff.(x) <- Some d;
        d
    end
  in
  let build_fault g f =
    let m = g.m in
    let line, d, r =
      match f.Fault.site with
      | Fault.Stem s -> (s, region_diff g s, root_of.(s))
      | Fault.Branch (gate, k) ->
        let j = (Netlist.fanin c gate).(k) in
        (* A non-root fanin is read on this pin alone, so its D is the
           pin's. *)
        ( j,
          (if root_of.(j) <> j then region_diff g j
           else Bdd.and_ m (region_diff g gate) (sens m c g.good gate k)),
          root_of.(gate) )
    in
    let flip = if f.Fault.stuck then Bdd.not_ m g.good.(line) else g.good.(line) in
    let activated = Bdd.and_ m flip d in
    if Bdd.is_zero activated then activated else Bdd.and_ m activated (obs g r)
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
  (* Faults the generations could not afford are estimated by COP. *)
  let cop = Cop_eval.cones c in
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
      let fb = Cop_eval.probs_plan cop plan x in
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
      let fb0 = Cop_eval.probs_plan cop plan x' in
      x'.(input) <- 1.0;
      let fb1 = Cop_eval.probs_plan cop plan x' in
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
  engine_oracle ~kind:"bdd"
    ~label:
      (Printf.sprintf "bdd-exact(%d/%d exact, %d generations, %d nodes)" n_exact nf
         (Array.length generations) !total_nodes)
    ~c ~faults ~exact ~redundant ~run_subset ~cofactor_pair:cofactor ()

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
  let cones = Cop_eval.cones c in
  let count source = Rt_sim.Fault_sim.count c ~source ~n_patterns in
  let cofactor plan ~input x =
    let x0 = Array.copy x in
    x0.(input) <- 0.0;
    let rng = Rt_util.Rng.create seed in
    let base = Pattern.weighted rng x0 in
    let record, recorded = recording_source base in
    let pf0 = Cop_eval.probs_counted cones plan (count record) in
    let pf1 = Cop_eval.probs_counted cones plan (count (replaying_source ~input base recorded)) in
    (pf0, pf1)
  in
  engine_oracle ~kind:"stafan"
    ~label:(Printf.sprintf "stafan(%d patterns)" n_patterns)
    ~c ~faults
    ~run_subset:(fun plan x ->
      Cop_eval.probs_counted cones plan
        (count (Pattern.weighted (Rt_util.Rng.create seed) x)))
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
  engine_oracle ~kind:"mc"
    ~label:(Printf.sprintf "monte-carlo(%d patterns)" n_patterns)
    ~c ~faults
    ~run_subset:(fun plan x ->
      (* Without dropping, each fault's detection counts depend only on
         the shared pattern stream, so simulating the selected faults
         alone reproduces a run over every fault exactly. *)
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
