(** Persistent work-stealing domain pool.

    Domains are spawned once (lazily, on the first region that needs
    them) and parked between parallel regions, replacing the
    spawn-per-region scheme whose [Domain.spawn]/[Domain.join] cost
    dominated short regions such as per-batch ppsfp fault sweeps.

    A region over [0, n) items is split into one contiguous queue per
    participant; queues are consumed through atomic cursors in
    grain-sized slices, and participants that run dry steal slices from
    the other queues.

    {2 Lanes and telemetry}

    Every worker domain is pinned to one participant slot ("lane") for
    its whole life — the [i]-th domain spawned is lane [i + 1], the
    submitting domain is lane 0.  Counters: [parallel.spawns] counts
    domain spawns (constant per process), [pool.tasks] counts executed
    slices.  When recording is on, each slice is a trace span
    ["<label>.slice"] on the executing domain. *)

type t

val create : unit -> t
(** A new pool with no domains; they are spawned on demand by {!run}. *)

val default : unit -> t
(** The process-wide pool used by [Parallel.sweep]; created on first
    use and shut down via [at_exit]. *)

val run :
  ?grain:int -> ?label:string -> t -> participants:int -> n:int ->
  (int -> int -> int -> unit) -> unit
(** [run t ~participants ~n body] executes [body worker lo hi] over
    disjoint slices covering [0, n), on the calling domain plus up to
    [participants - 1] pool domains, growing the pool if needed.

    [worker] is the executing participant's lane in
    [0, participants) — unique among concurrent calls, so it can index
    per-worker scratch state.  Slices are [grain] items (default 16);
    slice boundaries, and which worker runs which slice, depend on
    scheduling.  [label] (default ["pool"]) names the per-slice trace
    spans ["<label>.slice"].  Returns when every item has run.  If any
    [body] call raises, the remaining slices are skipped and the first
    exception is re-raised here.  Calls from inside a running [body]
    (nested regions) execute [body 0 0 n] inline. *)

val in_worker : unit -> bool
(** True while the calling domain is executing inside a {!run} body. *)

val size : t -> int
(** Number of domains currently parked in or working for the pool. *)

val shutdown : t -> unit
(** Wake and join every pool domain.  Subsequent parallel {!run} calls
    on the pool raise [Invalid_argument]. *)
