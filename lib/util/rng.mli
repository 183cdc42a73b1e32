(** Deterministic pseudo-random number generation.

    All stochastic behaviour in the library flows through this module so that
    every experiment is reproducible bit-for-bit from a seed.  The generator
    is xoshiro256** seeded through splitmix64, which has full 2^256-1 period
    and passes BigCrush; quality matters here because weighted random testing
    draws billions of biased bits. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] builds a generator deterministically from [seed] by running
    splitmix64 to fill the four 64-bit state words. *)

val copy : t -> t
(** [copy t] is an independent generator with the same current state. *)

val split : t -> t
(** [split t] derives a statistically independent child generator and
    advances [t]; used to give parallel components their own streams. *)

val bits64 : t -> int64
(** [bits64 t] is the next raw 64-bit output word. *)

val int : t -> int -> int
(** [int t n] is uniform in [0, n-1].  [n] must be positive; draws are
    rejection-sampled so the result is exactly uniform. *)

val float : t -> float
(** [float t] is uniform in [0,1) with 53-bit resolution. *)

val bool : t -> bool
(** [bool t] is a fair coin. *)

val biased_word : t -> float -> int64
(** [biased_word t p] is a 64-bit word whose bits are independent Bernoulli(p)
    draws.  Implemented by comparing 64 uniform draws against [p] would cost
    64 floats; instead we use the bit-slicing trick: the binary expansion of
    [p] selects a tree of AND/OR combinations of fair random words, giving
    exact probability [p] when [p] is a dyadic rational with <= 30 bits and
    an approximation within 2^-30 otherwise. *)

val shuffle : t -> 'a array -> unit
(** [shuffle t a] permutes [a] in place uniformly (Fisher-Yates). *)
