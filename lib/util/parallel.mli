(** Multicore helpers on top of [Domain] (OCaml 5, no extra deps).

    {!sweep} is the one parallel-dispatch entry point: work over an index
    range is claimed slice by slice on the persistent work-stealing
    {!Pool}, so domains are spawned once per process and parked between
    sweeps.  With [jobs = 1] the callback runs inline on the caller —
    bit-identical to a serial loop — so every [?jobs] parameter in the
    library defaults to the serial behaviour. *)

val max_jobs : int

val default_jobs : unit -> int
(** The [OPTPROB_JOBS] environment variable clamped to [1 .. max_jobs];
    1 when unset or unparsable. *)

val resolve_jobs : int option -> int
(** [resolve_jobs jobs] is [jobs] clamped to [1 .. max_jobs] when given,
    {!default_jobs} otherwise — the policy behind every [?jobs] argument. *)

val hardware_jobs : unit -> int
(** [Domain.recommended_domain_count] clamped to [max_jobs] — the most
    domains that can actually run concurrently on this machine. *)

val sweep :
  ?grain:int ->
  ?label:string ->
  ?seq_below:int ->
  jobs:int -> n:int -> (worker:int -> lo:int -> hi:int -> unit) -> unit
(** Item-level work stealing over [0, n) on the persistent {!Pool}.
    [f ~worker ~lo ~hi] is called once per claimed slice of at most
    [grain] items (default 16); [worker] is the executing participant's
    slot in [0, jobs_eff) and may index per-worker scratch state.  The
    same [worker] value sees many slices and slice boundaries are
    scheduling-dependent, so per-item results must be written to
    item-indexed (not worker-indexed) locations; a caller that does so
    gets a result independent of the job count.

    The effective job count is clamped to {!hardware_jobs} (spawning more
    domains than cores only adds overhead; set [OPTPROB_JOBS_OVERCOMMIT=1]
    to lift the clamp and oversubscribe, e.g. so serial-equivalence tests
    run real pool domains on a single-core host), and when [n < seq_below]
    (default 0) the work runs sequentially on the caller — per-call
    dispatch costs dwarf small workloads; such fallbacks while [jobs > 1]
    increment the ["parallel.seq_fallbacks"] counter.  The first exception
    raised by [f] is re-raised on the caller once the sweep has stopped.
    The whole sweep is timed as an [Rt_obs] span named [label] (default
    ["parallel.sweep"]).  Sweeps nested inside a pool worker run inline
    and sequentially. *)
