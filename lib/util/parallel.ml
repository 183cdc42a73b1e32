(* Chunked Domain-based parallelism.

   [region] and [sweep] are the only entry points: they clamp to the
   machine's core count, fall back to sequential execution below a
   work-size threshold, and execute on the persistent [Pool] so domains
   are spawned once per process instead of once per region (per ppsfp
   *batch* on the hot path).  [jobs = 1] stays on the exact serial code
   path, and every chunk is timed as an [Rt_obs] span on its executing
   domain. *)

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
   {!region_jobs} so a [--jobs 4] run spawns real pool domains even on a
   single-core host — pure oversubscription, useful only to exercise the
   scheduler telemetry (per-domain tracks, steals, parks) where the
   machine could not otherwise show it. *)
let overcommit () =
  match Sys.getenv_opt "OPTPROB_JOBS_OVERCOMMIT" with
  | Some ("1" | "true" | "yes") -> true
  | Some _ | None -> false

(* Contiguous chunk [lo, hi) of [0, n) for chunk index k of [jobs]. *)
let chunk_bounds ~jobs ~n k =
  let base = n / jobs and rem = n mod jobs in
  let lo = (k * base) + min k rem in
  let hi = lo + base + (if k < rem then 1 else 0) in
  (lo, hi)

let c_chunks = Rt_obs.counter "parallel.chunks"
let c_seq_fallbacks = Rt_obs.counter "parallel.seq_fallbacks"

(* Cap the job count so no chunk falls below [min_per_chunk] items. *)
let clamp_chunk_jobs ~min_per_chunk ~jobs ~n =
  max 1 (min jobs (max 1 (n / max 1 min_per_chunk)))

(* Registered once per region on the caller's domain (registration takes
   the sink mutex; the per-chunk observe itself is lock-free), so the
   chunk-time distribution — not just the total — survives into the
   metrics snapshot and imbalance shows up as a wide p50..p99 spread. *)
let timed_chunk ~label f =
  let hist =
    if Rt_obs.enabled () then Some (Rt_obs.histogram (label ^ ".chunk_us")) else None
  in
  fun ~chunk ~lo ~hi ->
    let t0 = Rt_obs.span_begin () in
    Rt_obs.incr c_chunks;
    f ~chunk ~lo ~hi;
    match hist with
    | Some h -> Rt_obs.span_end_h ~cat:"parallel" (label ^ ".chunk") h t0
    | None -> Rt_obs.span_end ~cat:"parallel" (label ^ ".chunk") t0

(* Effective job count for a policy'd region: never more domains than the
   hardware offers, and strictly sequential below the work-size threshold —
   dispatching a region costs far more than a small chunk's work (the
   measured ppsfp-on-one-core case was 4x slower at jobs=4 than serial). *)
let region_jobs ~seq_below ~jobs ~n =
  let requested = max 1 jobs in
  let cap = if overcommit () then max_jobs else hardware_jobs () in
  let eff = if n < seq_below then 1 else min requested cap in
  if requested > 1 && eff = 1 then Rt_obs.incr c_seq_fallbacks;
  eff

(* [jobs] chunks on the persistent pool.  One pool item per chunk,
   grain 1: participant [k]'s queue holds exactly chunk [k], so chunk 0
   normally lands on the caller and slow starters get their chunk stolen
   instead of stalling the region.  Each chunk still runs exactly once
   with its own [~chunk] index, so per-chunk workspaces and chunk-ordered
   merges do not depend on which domain ran which chunk. *)
let region ?(min_per_chunk = 1) ?(label = "parallel") ?(seq_below = 0) ~jobs ~n f =
  if n < 0 then invalid_arg "Parallel.region: negative n";
  let jobs = clamp_chunk_jobs ~min_per_chunk ~jobs:(region_jobs ~seq_below ~jobs ~n) ~n in
  Rt_obs.with_span ~cat:"parallel" label (fun () ->
      let timed = timed_chunk ~label f in
      if jobs = 1 || n = 0 then (if n > 0 then timed ~chunk:0 ~lo:0 ~hi:n)
      else
        Pool.run ~label (Pool.default ()) ~grain:1 ~participants:jobs ~n:jobs
          (fun _worker klo khi ->
            for k = klo to khi - 1 do
              let lo, hi = chunk_bounds ~jobs ~n k in
              if hi > lo then timed ~chunk:k ~lo ~hi
            done))

let sweep ?grain ?(label = "parallel.sweep") ?(seq_below = 0) ~jobs ~n f =
  if n < 0 then invalid_arg "Parallel.sweep: negative n";
  let jobs = region_jobs ~seq_below ~jobs ~n in
  Rt_obs.with_span ~cat:"parallel" label (fun () ->
      if jobs = 1 || n = 0 then (if n > 0 then f ~worker:0 ~lo:0 ~hi:n)
      else
        Pool.run ?grain ~label (Pool.default ()) ~participants:jobs ~n
          (fun worker lo hi -> f ~worker ~lo ~hi))
