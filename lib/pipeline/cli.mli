(** Shared cmdliner terms for pipeline configs — the one flag surface every
    subcommand composes instead of re-declaring its own. *)

open Cmdliner

val circuit_arg : Config.circuit_source Term.t
(** The positional CIRCUIT (did-you-mean errors at parse time). *)

val no_opt_arg : bool Term.t
val opt_passes_arg : string list option Term.t
val opt_rounds_arg : int Term.t

val config : ?default_patterns:int -> unit -> Config.t Term.t
(** The full shared config term: positional CIRCUIT plus --engine,
    --confidence, --seed, --jobs, --sweeps, --grid, --dyadic, --weights,
    --patterns, --work-dir, --no-opt, --opt-passes, --opt-rounds and
    --objective. *)
