module Netlist = Rt_circuit.Netlist
module Fault = Rt_fault.Fault

type result = {
  tests : bool array array;
  detected : int;
  redundant : Fault.t array;
  aborted : Fault.t array;
  podem_calls : int;
  seconds : float;
}

let generate ?(backtrack_limit = 10_000) ?(random_patterns = 128) ?(seed = 1) ?(compact = true)
    c faults =
  let t0 = Rt_util.Stats.timer_start () in
  let n_inputs = Array.length (Netlist.inputs c) in
  let nf = Array.length faults in
  let covered = Array.make nf false in
  let tests = ref [] in
  (* Phase 1: random patterns with fault dropping. *)
  let rng = Rt_util.Rng.create seed in
  if random_patterns > 0 then begin
    let source = Rt_sim.Pattern.equiprobable rng ~n_inputs in
    let stats = Rt_sim.Fault_sim.simulate ~drop:true c faults ~source ~n_patterns:random_patterns in
    (* Keep only the patterns that detected something new (approximated by
       keeping the first-detecting pattern of each fault). *)
    let keep = Hashtbl.create 64 in
    Array.iteri
      (fun fi fd ->
        if fd >= 0 then begin
          covered.(fi) <- true;
          Hashtbl.replace keep fd ()
        end)
      stats.Rt_sim.Fault_sim.first_detect;
    (* Regenerate the same stream to materialise kept patterns. *)
    let rng2 = Rt_util.Rng.create seed in
    let source2 = Rt_sim.Pattern.equiprobable rng2 ~n_inputs in
    let batches = Rt_sim.Pattern.take source2 random_patterns in
    List.iteri
      (fun bi batch ->
        for lane = 0 to batch.Rt_sim.Pattern.n_patterns - 1 do
          let idx = (bi * 64) + lane in
          if Hashtbl.mem keep idx then tests := Rt_sim.Pattern.pattern batch lane :: !tests
        done)
      batches
  end;
  (* Phase 2: PODEM on survivors, fault-simulating each new test. *)
  let redundant = ref [] and aborted = ref [] in
  let podem_calls = ref 0 in
  for fi = 0 to nf - 1 do
    if not covered.(fi) then begin
      incr podem_calls;
      match fst (Podem.generate ~backtrack_limit c faults.(fi)) with
      | Podem.Test pattern ->
        tests := pattern :: !tests;
        covered.(fi) <- true;
        (* Drop everything else this pattern catches. *)
        for fj = fi + 1 to nf - 1 do
          if (not covered.(fj)) && Rt_sim.Fault_sim.detects c faults.(fj) pattern then
            covered.(fj) <- true
        done
      | Podem.Redundant -> redundant := faults.(fi) :: !redundant
      | Podem.Aborted -> aborted := faults.(fi) :: !aborted
    end
  done;
  (* Phase 3: reverse-order compaction — drop tests that detect nothing the
     later tests miss. *)
  let tests_arr = Array.of_list (List.rev !tests) in
  let final_tests =
    if not compact then tests_arr
    else begin
      let detectable =
        faults |> Array.to_list
        |> List.filteri (fun fi _ -> covered.(fi))
        |> Array.of_list
      in
      let still_needed = Array.make (Array.length detectable) true in
      let kept = ref [] in
      for ti = Array.length tests_arr - 1 downto 0 do
        let contributes = ref false in
        Array.iteri
          (fun fj f ->
            if still_needed.(fj) && Rt_sim.Fault_sim.detects c f tests_arr.(ti) then begin
              still_needed.(fj) <- false;
              contributes := true
            end)
          detectable;
        if !contributes then kept := tests_arr.(ti) :: !kept
      done;
      Array.of_list !kept
    end
  in
  { tests = final_tests;
    detected = Array.fold_left (fun a b -> if b then a + 1 else a) 0 covered;
    redundant = Array.of_list (List.rev !redundant);
    aborted = Array.of_list (List.rev !aborted);
    podem_calls = !podem_calls;
    seconds = Rt_util.Stats.timer_elapsed t0 }
