(** Content-addressed stage-artifact store (the [--work-dir] backing).

    Artifacts are keyed by the MD5 of the stage name, the git revision,
    the relevant config slice and the digests of the upstream artifacts —
    so a resumed run with an unchanged config loads every stage from disk,
    and changing any input re-keys exactly the stages downstream of it.

    Values are marshalled; the key's git-rev component keeps stale
    marshalled layouts from older builds out of newer readers.  Corrupt or
    truncated files read as misses. *)

type t

val create : string -> t
(** Create (mkdir -p) the store rooted at a directory. *)

val key : rev:string -> stage:string -> parts:string list -> string
(** Deterministic hex key from the stage name, the git revision [rev]
    ({!Rt_obs.Artifact.git_rev}, which the caller reads once per pipeline
    context rather than once per stage) and key parts. *)

val load : t -> stage:string -> key:string -> ('a * string) option
(** [(value, digest)] for the stored artifact, or [None] on miss/corruption.
    The digest is the MD5 of the file bytes (content address). *)

val save : t -> stage:string -> key:string -> 'a -> string
(** Persist atomically (write + rename); returns the artifact digest. *)

val path : t -> stage:string -> key:string -> string
(** Where an artifact lives (for tooling/tests). *)
