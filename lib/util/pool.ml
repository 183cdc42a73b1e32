(* Persistent work-stealing domain pool.

   The spawn-per-region scheme this replaces paid one [Domain.spawn] +
   [Domain.join] per worker per parallel region — per ppsfp *batch*, which
   BENCH_optprob.json showed eating the entire multicore win on the
   hottest kernel.  Here domains are spawned once (lazily, growing to the
   largest participant count ever requested) and parked on a condition
   variable between regions, so a region submit costs one mutex round
   trip and a broadcast.

   Scheduling: a region over [0, n) is split into one contiguous sub-queue
   per participant.  Each sub-queue is consumed [grain] items at a time
   through an atomic cursor ([Atomic.fetch_and_add]); a participant that
   exhausts its own queue steals grain-sized slices from the other queues
   (fault-propagation cost is highly variable, so static chunking loses —
   and because queues are contiguous index ranges, stolen work stays
   range-local, which the cone-ordered fault schedule in Fault_sim turns
   into cache locality).  Completion is detected by counting finished
   items, so a region terminates correctly even if some pool domain never
   wakes in time to claim its slot (its queue is simply drained by the
   others).

   Lanes: each worker domain is pinned to one participant slot for its
   whole life — the domain spawned [i]-th always takes slot [i] (its
   "lane"), and the submitting domain is always lane 0.  A region with
   [participants = p] is joined by exactly the workers whose lane is
   below [p]; a late worker's queue is simply drained by the others.

   Determinism: which domain executes an item is scheduling-dependent, but
   the [worker] id passed to the body is the executing participant's slot
   — unique per concurrent participant — so per-worker scratch state is
   race-free, and callers that index results by item keep a merge order
   independent of stealing.

   Exceptions: the first failure is kept, the region is aborted (remaining
   slices are skipped, not run), and the exception is re-raised on the
   submitting domain after every participant has left the job.

   Nesting: a body that submits another region would deadlock on the
   submit lock, so submissions from inside a participant run the body
   inline and sequentially (the same rule the old spawn scheme applied via
   [jobs = 1]). *)

type job = {
  n : int;
  grain : int;
  participants : int;
  label : string;  (* names the per-slice trace spans: "<label>.slice" *)
  next : int Atomic.t array;  (* per-slot queue cursor *)
  hi : int array;  (* per-slot queue end *)
  body : int -> int -> int -> unit;  (* worker lo hi *)
  completed : int Atomic.t;  (* items finished or skipped *)
  active : int Atomic.t;  (* participants currently inside the job *)
  failure : exn option Atomic.t;
  abort : bool Atomic.t;
}

type t = {
  m : Mutex.t;
  cv : Condition.t;
  mutable current : job option;  (* pool mutex *)
  mutable epoch : int;  (* bumped per submit; wakes parked workers *)
  mutable domains : unit Domain.t list;
  mutable n_workers : int;
  mutable quit : bool;
  submit : Mutex.t;  (* one region at a time *)
}

let c_spawns = Rt_obs.counter "parallel.spawns"
let c_tasks = Rt_obs.counter "pool.tasks"

(* True on any domain currently executing inside a pool region (both pool
   workers and a submitting domain while it participates). *)
let in_worker_key = Domain.DLS.new_key (fun () -> false)

let in_worker () = Domain.DLS.get in_worker_key

let run_slice job ~worker ~lo ~hi =
  (if not (Atomic.get job.abort) then
     try job.body worker lo hi
     with e ->
       ignore (Atomic.compare_and_set job.failure None (Some e));
       Atomic.set job.abort true);
  ignore (Atomic.fetch_and_add job.completed (hi - lo))

(* Drain queue [q], [grain] items per atomic claim.  Cursors of exhausted
   queues keep advancing past [hi] on failed claims; that is harmless (the
   overshoot is bounded by one grain per scan) and keeps the fast path a
   single fetch_and_add.  When recording is on, every slice becomes a
   trace span on the executing domain. *)
let drain job ~worker q =
  let continue = ref true in
  while !continue do
    let lo = Atomic.fetch_and_add job.next.(q) job.grain in
    if lo >= job.hi.(q) then continue := false
    else begin
      let hi = min (lo + job.grain) job.hi.(q) in
      Rt_obs.incr c_tasks;
      let t0 = Rt_obs.span_begin () in
      run_slice job ~worker ~lo ~hi;
      if t0 > Float.neg_infinity then Rt_obs.span_end ~cat:"pool" (job.label ^ ".slice") t0
    end
  done

let participate job ~slot =
  let prev = Domain.DLS.get in_worker_key in
  Domain.DLS.set in_worker_key true;
  Fun.protect
    ~finally:(fun () -> Domain.DLS.set in_worker_key prev)
    (fun () ->
      drain job ~worker:slot slot;
      for d = 1 to job.participants - 1 do
        drain job ~worker:slot ((slot + d) mod job.participants)
      done)

let rec worker_loop t ~lane last_epoch =
  Mutex.lock t.m;
  while (not t.quit) && t.epoch = last_epoch do
    Condition.wait t.cv t.m
  done;
  if t.quit then Mutex.unlock t.m
  else begin
    let epoch = t.epoch in
    let claimed =
      match t.current with
      | Some job when lane < job.participants ->
        Atomic.incr job.active;
        Some job
      | Some _ | None -> None
    in
    Mutex.unlock t.m;
    (match claimed with
     | Some job ->
       participate job ~slot:lane;
       Atomic.decr job.active
     | None -> ());
    worker_loop t ~lane epoch
  end

let create () =
  { m = Mutex.create ();
    cv = Condition.create ();
    current = None;
    epoch = 0;
    domains = [];
    n_workers = 0;
    quit = false;
    submit = Mutex.create () }

let size t = t.n_workers

(* Grow to [w] parked worker domains.  Called with [t.submit] held (or
   before the pool is shared), so growth is single-writer.  The [i]-th
   domain spawned is lane [i + 1] forever (lane 0 is the submitter). *)
let ensure_workers t w =
  if t.quit then invalid_arg "Pool: pool is shut down";
  while t.n_workers < w do
    let lane = t.n_workers + 1 in
    (* The epoch is read here, before the spawn, not inside the new
       domain: the caller publishes its region (bumping [t.epoch]) right
       after growing the pool, and a domain that read the bumped epoch
       would take that region as already seen and park through it.  An
       epoch older than the next region's makes the worker check for a
       job at once (and park again if none is published). *)
    let epoch = t.epoch in
    let d = Domain.spawn (fun () -> worker_loop t ~lane epoch) in
    t.domains <- d :: t.domains;
    t.n_workers <- t.n_workers + 1;
    Rt_obs.incr c_spawns
  done

let default_grain = 16

let run ?(grain = default_grain) ?(label = "pool") t ~participants ~n body =
  if n < 0 then invalid_arg "Pool.run: negative n";
  if participants < 1 then invalid_arg "Pool.run: participants < 1";
  if grain < 1 then invalid_arg "Pool.run: grain < 1";
  if n = 0 then ()
  else if participants = 1 || in_worker () then body 0 0 n
  else begin
    Mutex.lock t.submit;
    match
      ensure_workers t (participants - 1);
      let next = Array.make participants (Atomic.make 0) in
      let hi = Array.make participants 0 in
      let base = n / participants and rem = n mod participants in
      for k = 0 to participants - 1 do
        let lo = (k * base) + min k rem in
        next.(k) <- Atomic.make lo;
        hi.(k) <- lo + base + (if k < rem then 1 else 0)
      done;
      let job =
        { n; grain; participants; label; next; hi; body;
          completed = Atomic.make 0;
          active = Atomic.make 1;  (* the submitter, lane 0 *)
          failure = Atomic.make None;
          abort = Atomic.make false }
      in
      Mutex.lock t.m;
      t.current <- Some job;
      t.epoch <- t.epoch + 1;
      Condition.broadcast t.cv;
      Mutex.unlock t.m;
      participate job ~slot:0;
      Atomic.decr job.active;
      (* All items either ran or were abort-skipped... *)
      while Atomic.get job.completed < n do
        Domain.cpu_relax ()
      done;
      (* ...then unpublish so no new worker joins, and wait for joined
         workers to leave before the next region can reuse the slots. *)
      Mutex.lock t.m;
      t.current <- None;
      Mutex.unlock t.m;
      while Atomic.get job.active > 0 do
        Domain.cpu_relax ()
      done;
      Atomic.get job.failure
    with
    | failure ->
      Mutex.unlock t.submit;
      (match failure with Some e -> raise e | None -> ())
    | exception e ->
      Mutex.unlock t.submit;
      raise e
  end

let shutdown t =
  Mutex.lock t.submit;
  Mutex.lock t.m;
  t.quit <- true;
  Condition.broadcast t.cv;
  Mutex.unlock t.m;
  let ds = t.domains in
  t.domains <- [];
  t.n_workers <- 0;
  Mutex.unlock t.submit;
  List.iter Domain.join ds

(* The process-wide pool behind [Parallel.sweep].
   Shut down via [at_exit] so the program never terminates with parked
   domains still alive. *)
let default_pool = ref None
let default_mutex = Mutex.create ()

let default () =
  Mutex.lock default_mutex;
  let p =
    match !default_pool with
    | Some p -> p
    | None ->
      let p = create () in
      default_pool := Some p;
      at_exit (fun () ->
          Mutex.lock default_mutex;
          let q = !default_pool in
          default_pool := None;
          Mutex.unlock default_mutex;
          Option.iter shutdown q);
      p
  in
  Mutex.unlock default_mutex;
  p
