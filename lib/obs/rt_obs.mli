(** Observability for the optimize pipeline: spans, counters/gauges,
    log-bucketed histograms, a convergence recorder, unified run artifacts,
    their one reader and an artifact-diff analyzer.

    Everything here is a global, process-wide sink.  Recording is gated on a
    single enabled flag: when disabled (the default) every entry point costs
    one atomic load and a branch and allocates nothing, so instrumented hot
    paths stay as fast as uninstrumented ones.  All recording entry points
    are safe to call concurrently from multiple domains.

    Spans export as Chrome [trace_event] JSON (loadable in [chrome://tracing]
    or {{:https://ui.perfetto.dev}Perfetto}) and as a human-readable
    aggregated tree.  Counters, gauges and histograms snapshot to JSON and
    to an OpenMetrics text exposition.  {!Artifact} bundles everything a run
    recorded into one self-describing directory; {!Artifact.read} turns such
    a directory back into an {!Artifact.run}, and {!Diff} compares two
    runs.  The convergence recorder is an explicit per-run object
    (see {!Convergence}) that works independently of the global flag. *)

val set_enabled : bool -> unit
(** Turn recording on or off globally.  Off by default. *)

val enabled : unit -> bool

val now_us : unit -> float
(** Wall clock in microseconds since the epoch (the span timebase). *)

val clear : unit -> unit
(** Drop all recorded spans, and reset every registered counter,
    gauge and histogram to zero (registrations themselves survive —
    instrumented modules keep their handles). *)

(** {1 Spans}

    Nestable timed regions.  A span is recorded when it {e ends}; nesting is
    reconstructed from the timestamps (per recording domain), which is also
    how the Chrome trace viewer draws them. *)

type event = {
  name : string;
  cat : string;  (** free-form category, e.g. ["phase"] or an engine name *)
  ts_us : float;  (** start, microseconds since the epoch *)
  dur_us : float;
  tid : int;  (** id of the recording domain *)
}

val span_begin : unit -> float
(** Timestamp for an explicit span; returns [neg_infinity] when disabled so
    the matching {!span_end} is a no-op.  This is the allocation-free form
    for hot paths (per-chunk timing). *)

val span_end : ?cat:string -> string -> float -> unit
(** [span_end ~cat name t0] records the span opened by [span_begin]. *)

val with_span : ?cat:string -> string -> (unit -> 'a) -> 'a
(** Run a thunk inside a span.  When disabled this is just [f ()].  The span
    is recorded even if [f] raises (the exception is re-raised). *)

val events : unit -> event list
(** Snapshot of all recorded spans, oldest first. *)

val trace_json : unit -> string
(** Chrome [trace_event] JSON: an object with a ["traceEvents"] array of
    complete ("ph":"X") span events, timestamps in microseconds. *)

val pp_summary : Format.formatter -> unit
(** Human-readable aggregated span tree (count and total wall-clock per
    name, nested by containment) followed by the nonzero counters, all
    gauges, and per-histogram count/p50/p90/p99/max. *)

(** {1 Counters and gauges}

    Registered by name; the same name always returns the same handle, so
    instrumented modules can register at init time and increment with one
    atomic op.  Increments from concurrent domains are never lost.
    Increments are dropped while disabled. *)

type counter

val counter : string -> counter
val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

type gauge

val gauge : string -> gauge
val gauge_set : gauge -> float -> unit
val gauge_value : gauge -> float

val counters_snapshot : unit -> (string * int) list
(** All registered counters, sorted by name. *)

val gauges_snapshot : unit -> (string * float) list

val sample_gc : unit -> unit
(** Refresh the [gc.*] gauges (minor/major words, heap words, minor and
    major collection counts) from [Gc.quick_stat].  Intended for phase
    boundaries; free when recording is disabled. *)

(** {1 Histograms}

    Domain-safe log-bucketed value distributions: observation is lock-free
    (atomic bucket increment plus CAS loops for sum/min/max), and every
    histogram shares one fixed bucket layout (four buckets
    per decade between [10^-9] and [10^9], plus underflow and overflow
    buckets), which makes {!hsnap_merge} lossless, associative and
    commutative.  Reported quantiles are upper bounds of the true sample
    quantiles: a value is always counted in a bucket whose upper bound is
    at least the value, and bucket bounds are one {!bucket_ratio} apart. *)

type histogram

val histogram : string -> histogram
(** Registered by name, like {!counter}. *)

val observe : histogram -> float -> unit
(** Record one sample.  Dropped while disabled; lock-free while enabled. *)

val span_end_h : ?cat:string -> string -> histogram -> float -> unit
(** {!span_end} that also observes the span's duration (µs) into a
    histogram — one clock read serves both. *)

val with_span_h : ?cat:string -> string -> histogram -> (unit -> 'a) -> 'a
(** {!with_span} that also observes the duration (µs) into a histogram. *)

(** A point-in-time copy of a histogram (or a pure sample summary). *)
type hsnap = {
  count : int;
  sum : float;
  min : float;  (** [+inf] when empty *)
  max : float;  (** [-inf] when empty *)
  buckets : int array;  (** shared fixed layout *)
}

val bucket_ratio : float
(** Ratio between consecutive bucket upper bounds ([10^(1/4)]). *)

val hsnap_empty : hsnap
val histogram_snapshot : histogram -> hsnap

val hsnap_of_samples : float array -> hsnap
(** Pure summary of a sample array (independent of the global sink and the
    enabled flag) — used e.g. for the per-sweep [p_f] distribution. *)

val hsnap_merge : hsnap -> hsnap -> hsnap
(** Lossless element-wise merge; associative and commutative (the float
    [sum] is subject to rounding, everything else is exact). *)

val hsnap_quantile : hsnap -> float -> float
(** [hsnap_quantile s q] for [q] in [(0, 1]]: an upper bound of the true
    sample quantile, within one {!bucket_ratio} (and never above the exact
    recorded [max]).  [q <= 0] returns the exact [min]; empty snapshots
    return [nan]. *)

val metrics_json : unit -> string
(** [{"schema":"optprob-metrics/2","counters":{...},"gauges":{...},
    "histograms":{...}}]; each histogram carries count/sum/min/max,
    p50/p90/p99 and its nonzero buckets as [[upper_bound, count]] pairs. *)

(** {1 JSON reader}

    A minimal JSON parser (no external dependency) for reading artifacts
    back — used by {!Artifact.read}, and available to tests. *)

module Json : sig
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  val parse : string -> t
  (** Raises [Failure] on malformed input. *)

  val member : string -> t -> t option
  val to_float : t -> float option
  val to_string : t -> string option

  val num_members : t -> (string * float) list
  (** The numeric members of an object, in document order; [[]] for anything
      else. *)
end

(** {1 Files} *)

val write_file : string -> string -> unit
(** Atomic write in binary mode: a sibling temp file (named with the pid and
    the domain id, so concurrent writers never share one) renamed into
    place. *)

val read_file : string -> string

val mkdir_p : string -> unit
(** Create a directory and its missing parents. *)

(** {1 Convergence recorder}

    Captures the trajectory of one [Optimize.run]: per sweep the objective
    value [J_N], the required test length [N], the chosen per-input [y]
    values, and a summary of the fault detection-probability distribution
    (the shrinking hard-fault tail).  Explicit opt-in (pass one to
    [Optimize.run ?recorder]); records regardless of the global enabled
    flag.  Not domain-safe — one recorder per run. *)

module Convergence : sig
  type row = {
    stage : string;  (** ["initial"], ["sweep"] or ["final"] *)
    sweep : int;  (** 0 for the initial row *)
    j : float;  (** [J_N] at this point (detectable faults) *)
    n : float;  (** required test length *)
    y : float array;  (** the weight vector *)
    pf : hsnap option;  (** distribution of [p_f(X)] over detectable faults *)
    objective : string;  (** objective key the row's [j]/[n] were computed under *)
  }

  type t

  val create : unit -> t

  val record :
    t -> ?pf:hsnap -> ?objective:string -> stage:string -> sweep:int -> j:float ->
    n:float -> y:float array -> unit -> unit
  (** [objective] defaults to ["single"]. *)

  val rows : t -> row list
  (** Oldest first. *)

  val to_json : t -> string
  (** [{"schema":"optprob-convergence/2","rows":[...]}]; floats printed
      with full precision so the final [n] round-trips exactly. *)
end

(** {1 Run artifacts} *)

module Artifact : sig
  type manifest = {
    argv : string array;
    engine : string option;
    seed : int option;
    jobs : int option;
    circuit : string option;
    patterns : int option;
    block_words : int option;
    opt_passes : string list option;
    opt_rounds : int option;
    objective : string option;  (** optimization objective spec, e.g. ["ndetect:2"] *)
    wall_s : float;
  }

  val make_manifest :
    ?engine:string -> ?seed:int -> ?jobs:int -> ?circuit:string -> ?patterns:int ->
    ?block_words:int -> ?opt_passes:string list -> ?opt_rounds:int ->
    ?objective:string ->
    argv:string array -> wall_s:float -> unit -> manifest
  (** Construction helper: every config-slice field defaults to absent. *)

  val git_rev : unit -> string
  (** [$OPTPROB_GIT_REV] if set, else the commit hash from [.git/HEAD]
      (following one level of symbolic ref, loose or in [packed-refs]),
      else ["unknown"]. *)

  val write : dir:string -> manifest:manifest -> ?convergence:Convergence.t -> unit -> unit
  (** Create [dir] (and parents) and write [manifest.json], [metrics.json],
      [trace.json] and — when a recorder is given — [convergence.json].
      Samples the GC gauges first. *)

  (** One run's artifact, parsed into the views {!Diff} compares. *)
  type run = {
    manifest : Json.t;  (** [manifest.json]; [Null] when absent *)
    counters : (string * float) list;
    gauges : (string * float) list;
    histograms : (string * (string * float) list) list;
        (** per histogram its numeric stats: count, sum, min, max, p50, p90, p99 *)
    span_totals : (string * float) list;  (** total span µs per name, sorted *)
    final_n : float option;  (** [n] of the last ["final"] convergence row *)
  }

  val read : string -> (run, string) result
  (** Parse an artifact directory.  [metrics.json] is required; manifest,
      convergence and trace files are optional, and any other file is
      ignored.  [Error] names the directory when [metrics.json] is missing
      or unreadable, and the file when any other present file is
      malformed. *)
end

(** {1 Artifact diffing} *)

module Diff : sig
  type thresholds = {
    span_ratio : float;  (** gate on per-name total span wall-clock (B/A) *)
    quantile_ratio : float;  (** gate on histogram p50/p99 and convergence final N *)
    counter_ratio : float;  (** gate on counter values (when >= 10 in one run) *)
    min_span_us : float;  (** ignore span totals below this in both runs *)
    min_hist_count : int;  (** ignore histograms with fewer observations *)
  }

  val default : thresholds
  (** 1.5x on everything, 1 ms span noise floor. *)

  type severity = Regression | Improvement | Info

  type finding = {
    severity : severity;
    kind : string;  (** ["counter"], ["gauge"], ["span"], ["histogram"],
                        ["convergence"] or ["manifest"] *)
    name : string;
    a : float;
    b : float;
    detail : string;
  }

  val compare : ?thresholds:thresholds -> Artifact.run -> Artifact.run -> finding list
  (** [compare a b] diffs two runs (A = baseline, B = candidate), each from
      {!Artifact.read}, and returns findings ranked most severe first. *)

  val regressions : finding list -> finding list

  val pp_report : Format.formatter -> finding list -> unit
end
