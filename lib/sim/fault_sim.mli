(** Parallel-pattern single-fault propagation (PPSFP) fault simulation.

    For each block of up to [W * 64] patterns ([W] words of 64 lanes,
    see {!Pattern.block}) the good circuit is simulated once; each live
    fault is then injected and its effect carried, all lanes at once,
    up the single-reader chain to the root of its fanout-free region
    ({!Rt_circuit.Cone.ffr_roots}).  Where that difference is nonzero,
    the root's flip is propagated event-driven to the outputs, at most
    once per root and block, and the fault is detected in the lanes
    where both the root differs and its flip is observed — exactly the
    lanes where a full propagation of the fault would reach an output.
    The flip is carried only in lanes still undecided: those where some
    live fault of the region reaches the root and no output has shown
    the flip yet.  It stops once every such lane is decided, so a
    flipped output stops at once.  Live faults
    are scheduled region by region and sharded across the persistent
    domain pool with work stealing; detection bookkeeping replays
    serially word by word, so results never depend on [jobs] or
    [block_words].  With fault dropping this is the engine behind the
    paper's Tables 2 and 4 and Fig. 2. *)

type stats = {
  faults : Rt_fault.Fault.t array;
  first_detect : int array;
      (** Per fault: index of the first detecting pattern, or -1. *)
  detect_count : int array;
      (** Per fault: number of detecting patterns seen (1 with dropping). *)
  patterns_run : int;
}

val simulate :
  ?jobs:int ->
  ?block_words:int ->
  ?drop:bool ->
  Rt_circuit.Netlist.t ->
  Rt_fault.Fault.t array ->
  source:Pattern.source ->
  n_patterns:int ->
  stats
(** [drop] (default true) stops simulating a fault once detected.

    [jobs] (default: the [OPTPROB_JOBS] environment variable, else 1)
    shards the per-fault and per-root propagations of each block across
    that many pool domains, each with its own workspace; detection
    bookkeeping is replayed deterministically on the caller, so the
    returned [stats] are bit-identical for every [jobs] value (the
    good-circuit simulation and the pattern source always run on the
    calling domain, preserving the RNG stream).

    [block_words] (default: the [OPTPROB_BLOCK_WORDS] environment
    variable, else 4) is the batch width [W] in 64-pattern words.
    Stats are bit-identical for every width; the only observable
    difference is source consumption — the block is filled before
    simulating, so when dropping empties the live set mid-block up to
    [W - 1] already-pulled source batches go unused. *)

val popcount : int64 -> int
(** Number of set bits (0..64), branch-free — the replay's per-word
    detection count. *)

val ctz : int64 -> int
(** Index of the least significant set bit; [64] when the word is zero —
    the replay's first-detecting lane. *)

val good_values : Rt_circuit.Netlist.t -> Pattern.block -> Pattern.words
(** The good machine on one block, exactly as {!simulate} runs it on
    its compiled netlist: node [x]'s value in word [i] is at
    [x * block.words + i] (lanes past a word's count are garbage). *)

val detects :
  Rt_circuit.Netlist.t -> Rt_fault.Fault.t -> bool array -> bool
(** [detects c f pattern]: single-pattern check (reference semantics used by
    tests and ATPG verification). *)

val coverage : stats -> float
(** Detected / total. *)

val coverage_at : stats -> int -> float
(** Coverage counting only the first [k] patterns. *)

val coverage_curve : stats -> points:int list -> (int * float) list
(** Sampled coverage-vs-pattern-count curve (paper Fig. 2). *)

val undetected : stats -> Rt_fault.Fault.t array
