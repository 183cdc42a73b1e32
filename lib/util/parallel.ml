(* Domain-based parallelism.

   [sweep] is the one entry point: it clamps to the machine's core count,
   falls back to sequential execution below a work-size threshold, and
   executes on the persistent [Pool] so domains are spawned once per
   process instead of once per call (per ppsfp *batch* on the hot path).
   [jobs = 1] stays on the exact serial code path. *)

let max_jobs = 64

let default_jobs () =
  match Sys.getenv_opt "OPTPROB_JOBS" with
  | None -> 1
  | Some s ->
    (match int_of_string_opt (String.trim s) with
     | Some j when j >= 1 -> min j max_jobs
     | Some _ | None -> 1)

let resolve_jobs jobs =
  match jobs with
  | Some j when j >= 1 -> min j max_jobs
  | Some _ -> 1
  | None -> default_jobs ()

let hardware_jobs () = min max_jobs (Domain.recommended_domain_count ())

(* [OPTPROB_JOBS_OVERCOMMIT=1] lifts the hardware-core clamp in
   [sweep_jobs] so a [--jobs 4] run spawns real pool domains even on a
   single-core host — pure oversubscription, there so the parallel
   tests that check results against a serial run use real worker
   domains on any machine. *)
let overcommit () =
  match Sys.getenv_opt "OPTPROB_JOBS_OVERCOMMIT" with
  | Some ("1" | "true" | "yes") -> true
  | Some _ | None -> false

let c_seq_fallbacks = Rt_obs.counter "parallel.seq_fallbacks"

(* Effective job count for a sweep: never more domains than the
   hardware offers, and strictly sequential below the work-size threshold —
   dispatching a sweep costs far more than a small slice's work (the
   measured ppsfp-on-one-core case was 4x slower at jobs=4 than serial). *)
let sweep_jobs ~seq_below ~jobs ~n =
  let requested = max 1 jobs in
  (* The environment and the core count are read only when they can
     matter: a getenv per call cost more than a small COP fill's work. *)
  let eff =
    if requested = 1 || n < seq_below then 1
    else min requested (if overcommit () then max_jobs else hardware_jobs ())
  in
  if requested > 1 && eff = 1 then Rt_obs.incr c_seq_fallbacks;
  eff

let sweep ?grain ?(label = "parallel.sweep") ?(seq_below = 0) ~jobs ~n f =
  if n < 0 then invalid_arg "Parallel.sweep: negative n";
  let jobs = sweep_jobs ~seq_below ~jobs ~n in
  Rt_obs.with_span ~cat:"parallel" label (fun () ->
      if jobs = 1 || n = 0 then (if n > 0 then f ~worker:0 ~lo:0 ~hi:n)
      else
        Pool.run ?grain ~label (Pool.default ()) ~participants:jobs ~n
          (fun worker lo hi -> f ~worker ~lo ~hi))
