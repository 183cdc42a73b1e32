(** Probability arithmetic helpers.

    Signal and detection probabilities live in [0,1] but the optimizer needs
    them clamped away from the boundary (paper Lemma 2: a weight of exactly 0
    or 1 makes an input stuck-at fault undetectable), quantised onto hardware
    grids, and combined in the log domain to avoid underflow when test
    lengths reach 10^11. *)

val clamp : ?lo:float -> ?hi:float -> float -> float
(** [clamp ~lo ~hi x] restricts [x] to [lo,hi]; defaults [lo=0.] [hi=1.]. *)

val interior : float -> float -> float
(** [interior eps x] clamps [x] to [eps, 1-eps]. *)

val quantize : grid:float -> float -> float
(** [quantize ~grid x] rounds to the nearest multiple of [grid] inside
    [grid, 1-grid]; the paper's appendix uses [grid=0.05]. *)

val quantize_dyadic : bits:int -> float -> float
(** [quantize_dyadic ~bits x] rounds to the nearest [k/2^bits] inside the
    open interval, the grid realisable by an LFSR weighting network of depth
    [bits]. *)

val complement_product : float array -> float
(** [complement_product ps] is [1 - prod (1 - p_i)], computed stably — the
    probability that at least one independent event occurs. *)

val detection_confidence : n:float -> float array -> float
(** [detection_confidence ~n pfs] is paper eq. (1):
    [prod_f (1 - (1-p_f)^n)], the probability that [n] random patterns
    detect every fault; evaluated in the log domain. *)

val pp : Format.formatter -> float -> unit
(** Prints a probability with adaptive precision (scientific when tiny). *)
