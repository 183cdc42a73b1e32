(* Domain-based parallelism: [sweep] and the persistent domains behind it.

   Domains are spawned once per process (lazily, growing to the largest
   participant count ever requested) and parked on a condition variable
   between sweeps, so a sweep costs one mutex round trip and a broadcast
   instead of a [Domain.spawn]/[Domain.join] per worker — per ppsfp
   *batch* on the hot path.  [jobs = 1] stays on the exact serial code
   path.

   Scheduling: a sweep over [0, n) is cut into [min n (chunk_factor * p)]
   contiguous chunks for [p] participants, and every participant claims
   chunks from one atomic cursor until none is left.  Fault-propagation
   cost varies widely, so a static chunk per participant loses (about
   10% on ppsfp); eight per participant balance it without per-lane
   queues.  Completion is detected by counting finished chunks, so a
   sweep terminates even if a parked domain never wakes in time to join
   it (the others drain the cursor).

   Lanes: the domain spawned [i]-th is lane [i + 1] for its whole life
   and the submitting domain is lane 0.  A sweep with [p] participants is
   joined only by workers whose lane is below [p], and the [worker] id
   passed to the body is the lane, so no two concurrent calls share one
   and per-worker scratch state is race-free.

   Exceptions: the first failure is kept, the remaining chunks are
   skipped (claimed, not run) and the exception is re-raised on the
   caller once every chunk is accounted for.

   Nesting: a body that starts another sweep would deadlock on the
   submit lock, so a sweep started from inside a participant runs its
   body inline on the whole range with worker 0. *)

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

(* [OPTPROB_JOBS_OVERCOMMIT=1] lifts the hardware-core clamp in
   [sweep_jobs] so a [--jobs 4] run spawns real domains even on a
   single-core host — pure oversubscription, there so the parallel
   tests that check results against a serial run use real worker
   domains on any machine. *)
let overcommit () =
  match Sys.getenv_opt "OPTPROB_JOBS_OVERCOMMIT" with
  | Some ("1" | "true" | "yes") -> true
  | Some _ | None -> false

let c_spawns = Rt_obs.counter "parallel.spawns"
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
    else if overcommit () then min requested max_jobs
    else min requested (min max_jobs (Domain.recommended_domain_count ()))
  in
  if requested > 1 && eff = 1 then Rt_obs.incr c_seq_fallbacks;
  eff

let chunk_factor = 8

type job = {
  participants : int;
  n : int;
  chunks : int;
  body : int -> int -> int -> unit;  (* worker lo hi *)
  next : int Atomic.t;  (* the next unclaimed chunk *)
  completed : int Atomic.t;  (* chunks run or skipped *)
  failure : exn option Atomic.t;
}

(* Guarded by [m]; [epoch] is bumped per published sweep and wakes the
   parked workers. *)
let m = Mutex.create ()
let cv = Condition.create ()
let current : job option ref = ref None
let epoch = ref 0
let quit = ref false

(* Guarded by [submit]: one sweep at a time. *)
let submit = Mutex.create ()
let domains : unit Domain.t list ref = ref []

(* True on a domain while it runs sweep bodies: always on a worker, and
   on the submitter while it takes part in its own sweep. *)
let in_sweep = Domain.DLS.new_key (fun () -> false)

(* Chunk [k] of [chunks] over [0, n) starts here; chunk [k] is
   [[chunk_lo k, chunk_lo (k + 1))]. *)
let chunk_lo job k = (k * (job.n / job.chunks)) + min k (job.n mod job.chunks)

let participate job ~worker =
  let continue = ref true in
  while !continue do
    let k = Atomic.fetch_and_add job.next 1 in
    if k >= job.chunks then continue := false
    else begin
      (if Option.is_none (Atomic.get job.failure) then
         try job.body worker (chunk_lo job k) (chunk_lo job (k + 1))
         with e -> ignore (Atomic.compare_and_set job.failure None (Some e)));
      Atomic.incr job.completed
    end
  done

let rec worker_loop ~lane last_epoch =
  Mutex.lock m;
  while (not !quit) && !epoch = last_epoch do
    Condition.wait cv m
  done;
  if !quit then Mutex.unlock m
  else begin
    let seen = !epoch and job = !current in
    Mutex.unlock m;
    (match job with
     | Some job when lane < job.participants -> participate job ~worker:lane
     | Some _ | None -> ());
    worker_loop ~lane seen
  end

(* Grow to [w] parked worker domains, with [submit] held. *)
let ensure_workers w =
  let have = List.length !domains in
  for lane = have + 1 to w do
    (* The epoch is read here, before the spawn, not inside the new
       domain: the caller publishes its sweep (bumping [epoch]) right
       after growing, and a domain that read the bumped epoch would take
       that sweep as already seen and park through it.  An older epoch
       makes the worker check for a job at once. *)
    let seen = !epoch in
    let d =
      Domain.spawn (fun () ->
          Domain.DLS.set in_sweep true;
          worker_loop ~lane seen)
    in
    domains := d :: !domains;
    Rt_obs.incr c_spawns
  done

(* Wake and join every worker, so the program never exits with parked
   domains alive; a later sweep spawns afresh. *)
let () =
  at_exit (fun () ->
      Mutex.lock submit;
      Mutex.lock m;
      quit := true;
      Condition.broadcast cv;
      Mutex.unlock m;
      List.iter Domain.join !domains;
      domains := [];
      quit := false;
      Mutex.unlock submit)

let run ~participants ~n body =
  Mutex.lock submit;
  match
    ensure_workers (participants - 1);
    let job =
      { participants; n; chunks = min n (chunk_factor * participants); body;
        next = Atomic.make 0; completed = Atomic.make 0; failure = Atomic.make None }
    in
    Mutex.lock m;
    current := Some job;
    incr epoch;
    Condition.broadcast cv;
    Mutex.unlock m;
    Domain.DLS.set in_sweep true;
    participate job ~worker:0;
    Domain.DLS.set in_sweep false;
    while Atomic.get job.completed < job.chunks do
      Domain.cpu_relax ()
    done;
    (* Unpublish so a late worker does not join a finished sweep. *)
    Mutex.lock m;
    current := None;
    Mutex.unlock m;
    Atomic.get job.failure
  with
  | failure ->
    Mutex.unlock submit;
    Option.iter raise failure
  | exception e ->
    Mutex.unlock submit;
    raise e

let sweep ?(label = "parallel.sweep") ?(seq_below = 0) ~jobs ~n f =
  if n < 0 then invalid_arg "Parallel.sweep: negative n";
  let jobs = sweep_jobs ~seq_below ~jobs ~n in
  Rt_obs.with_span ~cat:"parallel" label (fun () ->
      if n = 0 then ()
      else if jobs = 1 || Domain.DLS.get in_sweep then f ~worker:0 ~lo:0 ~hi:n
      else run ~participants:jobs ~n (fun worker lo hi -> f ~worker ~lo ~hi))
