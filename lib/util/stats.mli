(** Small descriptive-statistics helpers used by benches and reports. *)

val mean : float array -> float
(** Arithmetic mean; 0 on the empty array. *)

val variance : float array -> float
(** Unbiased sample variance; 0 when fewer than two samples. *)

val quantile : float -> float array -> float
(** [quantile q a] with [q] in [0,1]; linear interpolation on the sorted
    copy of [a].  Raises [Invalid_argument] on an empty array. *)

val geometric_steps : lo:int -> hi:int -> per_decade:int -> int list
(** [geometric_steps ~lo ~hi ~per_decade] is an increasing list of integers
    from [lo] to [hi] roughly geometrically spaced, deduplicated, always
    containing both endpoints — the sample points of coverage curves. *)

type timer
(** Wall-clock stopwatch. *)

val timer_start : unit -> timer
val timer_elapsed : timer -> float
(** Elapsed seconds since [timer_start]. *)
