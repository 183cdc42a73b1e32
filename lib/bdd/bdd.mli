(** Reduced ordered binary decision diagrams with hash-consing.

    The Parker-McCluskey exact computation of signal probabilities is
    #P-hard in general; on a BDD it is a single linear pass, because the
    two branches of a node are disjoint events.  This engine is the exact
    oracle against which the fast estimators are validated, and the exact
    ANALYSIS backend for small circuits.

    Nodes are indices into a manager-owned store; every function below is
    meaningful only for values created by the same manager.  A manager is
    single-threaded: even the probability queries memoise in scratch
    arrays it owns, so use it from one domain at a time, and do not query
    a manager from inside the [p] of a query on it. *)

type manager
type t
(** A BDD root (terminal or internal node) owned by some manager. *)

exception Limit_exceeded
(** Raised by node allocation when the manager's node limit is reached —
    callers fall back to estimation. *)

val max_node_limit : int
(** 2^23 = 8_388_608: a node packs its two child ids into 23-bit fields. *)

val manager : ?node_limit:int -> ?capacity:int -> nvars:int -> unit -> manager
(** [manager ~nvars ()] supports variables [0 .. nvars-1] with the natural
    order.  [node_limit] (default 2_000_000) bounds the unique table;
    above {!max_node_limit} it raises [Invalid_argument].  More than
    65 535 variables (a node's variable is a 16-bit field, its top value
    the terminals') raise {!Limit_exceeded}, so callers fall back to
    estimation as on any overflow.  [capacity] (default 1024) is how many
    nodes the tables are allocated for up front, capped by [node_limit];
    past it they double.  Node ids, and so every result, do not depend
    on it. *)

val node_count : manager -> int
(** Nodes currently allocated (excludes terminals). *)

val zero : manager -> t
val one : manager -> t
val var : manager -> int -> t
val not_ : manager -> t -> t
val and_ : manager -> t -> t -> t
val or_ : manager -> t -> t -> t
val xor_ : manager -> t -> t -> t

val apply_kind : manager -> Rt_circuit.Gate.kind -> t array -> t
(** Fold a gate's boolean function over BDD operands (Input is invalid). *)

val equal : t -> t -> bool
(** Canonical: structural function equality. *)

val is_zero : t -> bool
val is_one : t -> bool

val eval : manager -> t -> (int -> bool) -> bool
(** Evaluate under an assignment. *)

val prob : manager -> t -> (int -> float) -> float
(** [prob m f p] is the exact probability that [f] is true when variable
    [i] is independently true with probability [p i] — the arithmetical
    embedding of paper §2.1 evaluated exactly.  It costs time in the
    nodes reachable from [f], not in the size of the manager. *)

val prob_many : manager -> t array -> (int -> float) -> float array
(** As {!prob} for many roots, sharing one memo table — evaluating the
    per-fault detection BDDs of a whole fault list costs one pass over
    their shared subgraphs. *)

val prob_pair_many : manager -> t array -> var:int -> (int -> float) -> (float * float) array
(** [prob_pair_many m roots ~var p] is, per root, the pair of
    probabilities with variable [var] forced to 0 and to 1 — both
    single-variable cofactors from one traversal.  [p var] itself is never
    read.  Each component is bit-identical to {!prob_many} evaluated with
    [p] overridden to return 0.0 (resp. 1.0) at [var]; subgraphs ordered
    below [var] are evaluated once and shared by both components.  This is
    the exact engine's PREPARE kernel (paper §4, eq. 15). *)
