(** Persistent run registry: longitudinal history over {!Rt_obs.Artifact}
    directories.

    A registry is a plain directory (default [_obs/registry], overridable via
    [$OPTPROB_OBS_REGISTRY]) holding one compact JSON record per ingested run
    under [records/], a rebuildable [index.json] cache of per-run summaries,
    and an optional [baseline.json] naming the promoted baseline record.

    A record is an {!Rt_obs.Artifact.run} at rest: it stores the run's
    manifest, metrics and convergence documents verbatim, its span totals,
    and the flat derived metric map, and {!load} rebuilds the run from
    those members.  A record therefore diffs with {!Rt_obs.Diff.compare}
    exactly like the directory it came from.

    Durability model: every write is atomic (sibling temp file + rename), a
    record is one immutable file so concurrent writers never contend, and the
    index is only a cache — readers verify it covers exactly the record files
    on disk and rebuild it from the records otherwise, skipping corrupt or
    truncated files.  Losing [index.json] loses nothing. *)

val schema_record : string
(** ["optprob-registry/1"], the per-record document schema. *)

val default_dir : unit -> string
(** [$OPTPROB_OBS_REGISTRY] when set and non-empty, else [_obs/registry]. *)

(** One row of the index: everything [obs list] prints, without loading the
    full record. *)
type summary = {
  id : string;
  ts : float;  (** ingestion time, seconds since the epoch *)
  git_rev : string;
  circuit : string option;
  engine : string option;
  config : (string * string) list;  (** config slice from the manifest, sorted *)
  wall_s : float;
}

(** A fully loaded record: its summary, the run it was ingested from, and
    that run flattened into the derived metric map (counters, gauges,
    histogram stats, span totals, [pipeline.total_us], [wall_s],
    convergence summary). *)
type record = {
  r_summary : summary;
  r_run : Rt_obs.Artifact.run;
  r_metrics : (string * float) list;  (** sorted by name *)
}

type filter = {
  f_engine : string option;  (** exact match *)
  f_circuit : string option;  (** exact match *)
  f_git_rev : string option;  (** prefix match, so short revs work *)
  f_config : (string * string) list;  (** all [K=V] pairs must match *)
}

val no_filter : filter

val ingest_run :
  ?id:string -> ?source:string -> registry:string -> Rt_obs.Artifact.run ->
  (string, string) result
(** Store one run ({!Rt_obs.Artifact.read} or {!Rt_obs.Artifact.of_sink})
    as a new record and refresh the index.  [source] (default ["memory"])
    is kept in the record as its provenance.  Returns the record id —
    [YYYYMMDDTHHMMSS-xxxxxx] unless [?id] pins it.  [Error] when the id
    already exists or the record cannot be written. *)

val ingest : ?id:string -> registry:string -> obs_dir:string -> unit -> (string, string) result
(** {!Rt_obs.Artifact.read} on [obs_dir] (requires a readable
    [metrics.json]; all other files are optional), then {!ingest_run} with
    [obs_dir] as the source.  [Error] also when the artifact is
    unreadable. *)

val list : ?filter:filter -> registry:string -> unit -> summary list
(** All records oldest-first, via the index when it is consistent with the
    record files on disk, rebuilding it otherwise.  Unreadable records are
    skipped.  An absent registry directory is an empty registry. *)

val load : registry:string -> string -> (record, string) result
(** Rebuild a record's run from its stored members [manifest], [metrics],
    [convergence] and [span_totals].  The stored [derived] map is not read
    back: it is recomputed from the run, so a record written by an older
    build (e.g. one carrying [timeline.*] keys) loads as the same run minus
    the keys no longer derived. *)

val metric : record -> string -> float option
(** Look up one derived metric by name (e.g. ["pipeline.total_us"],
    ["oracle.query.us.p90"], ["span.optimize.us"], ["wall_s"]). *)

val metric_names : record -> string list

(** {1 Baseline} *)

val promote : registry:string -> string -> (unit, string) result
(** Mark a record id as the promoted baseline ([Error] if it doesn't exist). *)

val promoted : registry:string -> string option
val clear_baseline : registry:string -> unit

(** {1 Retention} *)

val gc : ?keep:int -> ?max_age_s:float -> registry:string -> unit -> int
(** Delete records beyond the newest [keep] and/or older than [max_age_s]
    seconds (the promoted baseline always survives); rebuild the index and
    return the number of records removed. *)

(** {1 Trends} *)

type point = { p_id : string; p_ts : float; p_value : float }

type series = {
  s_metric : string;
  s_points : point list;  (** oldest first; runs lacking the metric are skipped *)
  s_mean : float;
  s_p50 : float;
  s_p90 : float;
}

val series : ?filter:filter -> ?last:int -> registry:string -> string -> series
(** Time series of one metric over the last [last] (default 30) matching
    runs.  Statistics are [nan] when the series is empty. *)

(** A flagged step change: point [st_index] of the series jumped by
    [st_ratio] (deviation over threshold, >= 1) relative to the median of its
    trailing window. *)
type step = {
  st_index : int;
  st_value : float;
  st_median : float;
  st_ratio : float;
  st_up : bool;
}

val step_changes : ?window:int -> ?k:float -> ?rel:float -> float array -> step list
(** Robust step-change detection: each point with at least 3 predecessors is
    compared to the median of the [window] (default 8) preceding values; it
    is flagged when its absolute deviation exceeds
    [max (k * 1.4826 * MAD, rel * |median|)] (defaults [k = 4.0],
    [rel = 0.25]).  Median/MAD make the detector robust to single-run noise
    spikes inside the window. *)

val sparkline : float array -> string
(** Min-max scaled Unicode block sparkline, e.g. ["▁▃▆█"]; empty input gives
    the empty string. *)
