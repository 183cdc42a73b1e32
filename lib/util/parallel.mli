(** Multicore sweeps on top of [Domain] (OCaml 5, no extra deps).

    {!sweep} is the one parallel-dispatch entry point.  Domains are
    spawned once per process and parked between sweeps; with
    [jobs = 1] the callback runs inline on the caller — bit-identical to
    a serial loop — so every [?jobs] parameter in the library defaults
    to the serial behaviour.  The counter ["parallel.spawns"] counts
    domain spawns (constant per process once grown). *)

val max_jobs : int

val default_jobs : unit -> int
(** The [OPTPROB_JOBS] environment variable clamped to [1 .. max_jobs];
    1 when unset or unparsable. *)

val resolve_jobs : int option -> int
(** [resolve_jobs jobs] is [jobs] clamped to [1 .. max_jobs] when given,
    {!default_jobs} otherwise — the policy behind every [?jobs] argument. *)

val sweep :
  ?label:string ->
  ?seq_below:int ->
  jobs:int -> n:int -> (worker:int -> lo:int -> hi:int -> unit) -> unit
(** [sweep ~jobs ~n f] covers [0, n) with calls [f ~worker ~lo ~hi] on
    disjoint contiguous ranges: [n] is cut into [min n (8 * jobs_eff)]
    chunks that the participants claim from one shared cursor.
    [worker] is the executing participant's lane in [0, jobs_eff),
    unique among concurrent calls, so it may index per-worker scratch
    state; which lane runs which chunk depends on scheduling, so
    per-item results must go to item-indexed locations, and a caller
    that does so gets a result independent of the job count.

    The effective job count [jobs_eff] is clamped to
    [Domain.recommended_domain_count] (set [OPTPROB_JOBS_OVERCOMMIT=1]
    to lift the clamp and oversubscribe, e.g. so serial-equivalence
    tests run real domains on a single-core host), and when
    [n < seq_below] (default 0) the work runs sequentially on the
    caller; such fallbacks while [jobs > 1] increment the
    ["parallel.seq_fallbacks"] counter.  If [f] raises, the remaining
    chunks are skipped and the first exception is re-raised on the
    caller.  The whole sweep is timed as an [Rt_obs] span named [label]
    (default ["parallel.sweep"]).  A sweep started inside another
    sweep's [f] runs [f ~worker:0 ~lo:0 ~hi:n] inline. *)
