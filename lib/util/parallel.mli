(** Chunked multicore helpers on top of [Domain] (OCaml 5, no extra deps).

    Work over an index range is split into [jobs] contiguous chunks
    ({!region}) or claimed item by item ({!sweep}), on the persistent
    work-stealing {!Pool}, so domains are spawned once per process and
    parked between regions.  With [jobs = 1] the callback runs
    inline on the caller — bit-identical to a serial loop — so every
    [?jobs] parameter in the library defaults to the serial behaviour. *)

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

val chunk_bounds : jobs:int -> n:int -> int -> int * int
(** [chunk_bounds ~jobs ~n k] is the half-open range [(lo, hi)] of chunk
    [k]: contiguous, ascending, sizes differing by at most one. *)

val region :
  ?min_per_chunk:int ->
  ?label:string ->
  ?seq_below:int ->
  jobs:int -> n:int -> (chunk:int -> lo:int -> hi:int -> unit) -> unit
(** Run [f] over [0, n) split into contiguous chunks, on the persistent
    {!Pool} (domains are spawned at most once per process, not per
    region).  [min_per_chunk] (default 1) caps the job count so no chunk
    falls below that many items.  The effective job count is also clamped
    to {!hardware_jobs} (spawning more domains than cores only adds
    overhead; set [OPTPROB_JOBS_OVERCOMMIT=1] to lift the clamp and
    oversubscribe, e.g. to exercise real pool domains on a single-core
    host), and when [n < seq_below] (default 0) the work runs sequentially
    on the caller — per-region dispatch costs dwarf small workloads.
    Each chunk is called exactly once with its own [~chunk] index (work
    stealing moves chunks between domains, never splits or repeats them),
    so a caller that writes chunk-indexed partials and merges them in
    chunk order gets a deterministic result for a given job count.  The
    first exception raised by a chunk is re-raised on the caller once the
    region has stopped.  Each chunk is timed as an [Rt_obs] span named
    ["<label>.chunk"] on its executing domain (default label
    ["parallel"]), and the whole region as a span named [label]; falls
    back to sequential while [jobs > 1] increment the
    ["parallel.seq_fallbacks"] counter.  Regions nested inside a pool
    worker run inline and sequentially. *)

val sweep :
  ?grain:int ->
  ?label:string ->
  ?seq_below:int ->
  jobs:int -> n:int -> (worker:int -> lo:int -> hi:int -> unit) -> unit
(** Item-level work stealing over [0, n) on the persistent {!Pool}, for
    kernels whose per-item cost is highly variable (e.g. per-fault event
    propagation).  [f ~worker ~lo ~hi] is called once per claimed slice of
    at most [grain] items (default 16); [worker] is the executing
    participant's slot in [0, jobs_eff) and may index per-worker scratch
    state — unlike {!region}, the same [worker] value sees many slices and
    slice boundaries are scheduling-dependent, so per-item results must be
    written to item-indexed (not worker-indexed) locations.  Job-count
    policy ([seq_below], hardware clamp, seq fallback counting) matches
    {!region}. *)
