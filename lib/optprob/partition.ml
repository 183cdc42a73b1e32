module Detect = Rt_testability.Detect
module Oracle = Rt_testability.Oracle

type split = {
  groups : int array array;
  weights : float array array;
  n_single : float;
  n_parts : float array;
  n_total : float;
}

let preference_vectors oracle ~hard x =
  let n_inputs = Array.length (Rt_circuit.Netlist.inputs (Oracle.circuit oracle)) in
  let vectors = Array.map (fun _ -> Array.make n_inputs 0.0) hard in
  (* Only the hard faults' cofactors are read, so query through a subset
     plan and the fused cofactor path instead of 2n full-universe runs;
     results index by position in [hard]. *)
  let plan = Oracle.plan oracle hard in
  for i = 0 to n_inputs - 1 do
    let pf0, pf1 = Oracle.cofactor_pair oracle plan ~input:i ~x in
    Array.iteri (fun h _ -> vectors.(h).(i) <- pf1.(h) -. pf0.(h)) hard
  done;
  vectors

let antagonism a b =
  let dot = ref 0.0 and na = ref 0.0 and nb = ref 0.0 in
  Array.iteri
    (fun i ai ->
      dot := !dot +. (ai *. b.(i));
      na := !na +. (ai *. ai);
      nb := !nb +. (b.(i) *. b.(i)))
    a;
  if !na = 0.0 || !nb = 0.0 then 0.0 else -. !dot /. sqrt (!na *. !nb)

let split ?(options = Optimize.default_options) ?(k = 2) ?hard_threshold
    ?(sub_engine = Detect.Bdd_exact { node_limit = 500_000 }) oracle =
  if k < 2 then invalid_arg "Partition.split: k must be >= 2";
  let single = Optimize.run ~options oracle in
  let pf = Oracle.probs oracle single.Optimize.weights in
  let norm = Normalize.run ~confidence:options.Optimize.confidence pf in
  let hard =
    match hard_threshold with
    | Some t ->
      Array.of_list
        (List.filter (fun i -> pf.(i) > 0.0 && pf.(i) < t)
           (List.init (Array.length pf) Fun.id))
    | None -> Normalize.hard_indices norm
  in
  if Array.length hard < k then
    (* Nothing to split: degenerate result with one group. *)
    { groups = [| hard |];
      weights = [| single.Optimize.weights |];
      n_single = single.Optimize.n_final;
      n_parts = [| single.Optimize.n_final |];
      n_total = single.Optimize.n_final }
  else begin
    let vectors = preference_vectors oracle ~hard single.Optimize.weights in
    let nh = Array.length hard in
    (* Farthest-point seeding on antagonism, then assignment by similarity
       (i.e. least antagonism) to the seeds. *)
    let seed0 = ref 0 and seed1 = ref 1 and worst = ref Float.neg_infinity in
    for a = 0 to nh - 1 do
      for b = a + 1 to nh - 1 do
        let ant = antagonism vectors.(a) vectors.(b) in
        if ant > !worst then begin
          worst := ant;
          seed0 := a;
          seed1 := b
        end
      done
    done;
    let seeds = ref [ !seed1; !seed0 ] in
    while List.length !seeds < k do
      (* Next seed: maximises the minimal antagonism... we want maximal
         antagonism to all current seeds (farthest point). *)
      let best = ref (-1) and best_score = ref Float.neg_infinity in
      for cand = 0 to nh - 1 do
        if not (List.mem cand !seeds) then begin
          let score =
            List.fold_left
              (fun acc s -> Float.min acc (antagonism vectors.(cand) vectors.(s)))
              Float.infinity !seeds
          in
          if score > !best_score then begin
            best_score := score;
            best := cand
          end
        end
      done;
      seeds := !best :: !seeds
    done;
    let seeds = Array.of_list (List.rev !seeds) in
    let assignment = Array.make nh 0 in
    for h = 0 to nh - 1 do
      let best = ref 0 and best_ant = ref Float.infinity in
      Array.iteri
        (fun gi s ->
          let ant = antagonism vectors.(h) vectors.(s) in
          if ant < !best_ant then begin
            best_ant := ant;
            best := gi
          end)
        seeds;
      assignment.(h) <- !best
    done;
    let groups =
      Array.init k (fun gi ->
          hard |> Array.to_list
          |> List.filteri (fun h _ -> assignment.(h) = gi)
          |> Array.of_list)
    in
    let groups = Array.of_list (List.filter (fun g -> Array.length g > 0) (Array.to_list groups)) in
    (* Per group: optimise for the group's hard faults plus every easy
       fault (easy faults are cheap under any distribution; including them
       keeps each part an honest standalone test). *)
    let c = Oracle.circuit oracle in
    let all_faults = Oracle.faults oracle in
    let hard_set = Hashtbl.create 64 in
    Array.iter (fun f -> Hashtbl.replace hard_set f ()) hard;
    let easy_idx =
      List.filter (fun i -> not (Hashtbl.mem hard_set i)) (List.init (Array.length all_faults) Fun.id)
    in
    let engine_of_group group =
      let idxs = Array.append group (Array.of_list easy_idx) in
      let faults = Array.map (fun i -> all_faults.(i)) idxs in
      Detect.make sub_engine c faults
    in
    let reports =
      Array.map
        (fun group ->
          let sub_oracle = engine_of_group group in
          Optimize.run ~options sub_oracle)
        groups
    in
    let weights = Array.map (fun r -> r.Optimize.weights) reports in
    let n_parts = Array.map (fun r -> r.Optimize.n_final) reports in
    { groups;
      weights;
      n_single = single.Optimize.n_final;
      n_parts;
      n_total = Array.fold_left ( +. ) 0.0 n_parts }
  end
