(** Observability for the optimize pipeline: spans, counters, a
    convergence recorder, unified run artifacts, their one reader and an
    artifact-diff analyzer.

    Everything here is a global, process-wide sink.  Recording is gated on a
    single enabled flag: when disabled (the default) every entry point costs
    one atomic load and a branch and allocates nothing, so instrumented hot
    paths stay as fast as uninstrumented ones.  All recording entry points
    are safe to call concurrently from multiple domains.

    Spans export as Chrome [trace_event] JSON (loadable in [chrome://tracing]
    or {{:https://ui.perfetto.dev}Perfetto}) and as a human-readable
    aggregated tree; they are the only timing channel, and
    {!Artifact.read} derives exact per-span latency quantiles from them.
    Counters snapshot to JSON.  {!Artifact} bundles everything
    a run recorded into one self-describing directory; {!Artifact.read}
    turns such a directory back into an {!Artifact.run}, and {!Diff}
    compares two runs.  The convergence recorder is an explicit per-run
    object (see {!Convergence}) that works independently of the global
    flag. *)

val set_enabled : bool -> unit
(** Turn recording on or off globally.  Off by default. *)

val now_us : unit -> float
(** Wall clock in microseconds since the epoch (the span timebase). *)

val clear : unit -> unit
(** Drop all recorded spans, and reset every registered counter to
    zero (registrations themselves survive — instrumented modules keep
    their handles). *)

(** {1 Spans}

    Nestable timed regions.  A span is recorded when it {e ends}; nesting is
    reconstructed per recording domain from the order the spans began and
    ended in, so two spans that share a microsecond boundary still nest
    as they ran. *)

type event = {
  name : string;
  cat : string;  (** free-form category, e.g. ["phase"] or an engine name *)
  ts_us : float;  (** start, microseconds since the epoch *)
  dur_us : float;
  tid : int;  (** id of the recording domain *)
  seq : int;
      (** begin order: spans are numbered from one process-wide counter
          when they begin (a back-dated {!span_end} when it ends), so on
          one domain the numbers follow the order its spans began in *)
}

val span_begin : unit -> float
(** Timestamp for an explicit span; returns [neg_infinity] when disabled so
    the matching {!span_end} is a no-op.  This is the allocation-free form
    for hot paths (per-chunk timing). *)

val span_end : ?cat:string -> string -> float -> unit
(** [span_end ~cat name t0] records the span opened by [span_begin].  A
    [t0] taken from {!now_us} records a span that started then, so a
    duration measured elsewhere can be recorded back-dated. *)

val with_span : ?cat:string -> string -> (unit -> 'a) -> 'a
(** Run a thunk inside a span.  When disabled this is just [f ()].  The span
    is recorded even if [f] raises (the exception is re-raised). *)

val events : unit -> event list
(** Snapshot of all recorded spans, oldest first. *)

val trace_json : unit -> string
(** Chrome [trace_event] JSON: an object with a ["traceEvents"] array of
    complete ("ph":"X") span events, timestamps in microseconds. *)

val pp_span_tree : Format.formatter -> event list -> unit
(** The aggregated span tree of [evs], which must be in recording order
    as {!events} returns them (one domain's recording order is its end
    order): one line per sibling group of the same name and category,
    with its count and total wall-clock, children indented under it. *)

val pp_summary : Format.formatter -> unit
(** Human-readable aggregated span tree (count and total wall-clock per
    name, nested as the spans ran) followed by the nonzero counters. *)

(** {1 Counters}

    Registered by name; the same name always returns the same handle, so
    instrumented modules can register at init time and increment with one
    atomic op.  Increments from concurrent domains are never lost.
    Increments are dropped while disabled. *)

type counter

val counter : string -> counter
val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

val counters_snapshot : unit -> (string * int) list
(** All registered counters, sorted by name. *)

val metrics_json : unit -> string
(** [{"schema":"optprob-metrics/4","counters":{...}}]. *)

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
    pf : (string * float) list option;
        (** exact distribution of [p_f(X)] over the detectable faults:
            count, min, p1, p10, p50, p90, p99 and max, in that order
            (nearest-rank percentiles) *)
    objective : string;  (** objective key the row's [j]/[n] were computed under *)
  }

  type t

  val create : unit -> t

  val record :
    t -> ?pf:float array -> ?objective:string -> stage:string -> sweep:int -> j:float ->
    n:float -> y:float array -> unit -> unit
  (** [pf] is the row's sample, summarised on the spot; [objective]
      defaults to ["single"]. *)

  val rows : t -> row list
  (** Oldest first. *)

  val to_json : t -> string
  (** [{"schema":"optprob-convergence/3","rows":[...]}]; floats printed
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
      [trace.json] and — when a recorder is given — [convergence.json]. *)

  (** The events of one span name and category in [trace.json]; the
      percentiles are exact (nearest rank) over the event durations. *)
  type span_stat = { count : int; total_us : float; p50_us : float; p99_us : float }

  (** One run's artifact, parsed into the views {!Diff} compares. *)
  type run = {
    manifest : Json.t;  (** [manifest.json]; [Null] when absent *)
    counters : (string * float) list;
    spans : ((string * string) * span_stat) list;
        (** per (span name, category), sorted; a span without a category
            has [""] *)
    final_n : float option;  (** [n] of the last ["final"] convergence row *)
  }

  val read : string -> (run, string) result
  (** Parse an artifact directory.  [metrics.json] is required; manifest,
      convergence and trace files are optional, and any other file or
      member (such as the bucketed latency summaries of an
      [optprob-metrics/2] file or the gauges of an [optprob-metrics/3]
      one) is ignored.  [Error] names the directory
      when [metrics.json] is missing or unreadable, and the file when any
      other present file is malformed. *)
end

(** {1 Artifact diffing} *)

module Diff : sig
  type thresholds = {
    span_ratio : float;  (** gate on per-name total span wall-clock (B/A) *)
    quantile_ratio : float;  (** gate on span p50/p99 and convergence final N *)
    counter_ratio : float;  (** gate on counter values (when >= 10 in one run) *)
    min_span_us : float;
        (** ignore a span name (total and quantiles) whose total is below
            this in both runs *)
    min_span_count : int;
        (** ignore the quantiles of a span name and category with fewer
            events than this in either run *)
  }

  val default : thresholds
  (** 1.5x on everything, 1 ms span noise floor, quantiles from 100
      events (below that a nearest-rank p99 is the maximum). *)

  type severity = Regression | Improvement | Info

  type finding = {
    severity : severity;
    kind : string;
        (** ["counter"], ["span"] (total per name),
            ["quantile"] (p50/p99 per span name and category, only past
            [quantile_ratio]; one finding per category, named by the span
            and with the category in [detail]), ["convergence"] or
            ["manifest"] *)
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
