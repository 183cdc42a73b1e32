(** The objective-function protocol: what the optimizer minimises.

    The paper's objective (eq. 9/10) is

    [J_N(X) = sum_f exp (-N * p_f(X))]

    which approximates [-ln delta_N(X)], the negated log-confidence of an
    [N]-pattern random test.  Minimising [J_N] maximises the chance that
    every fault is caught.

    Along one coordinate the detection probabilities are affine
    (Lemma 1): [p_f(X, y|i) = p_f(X,0|i) + y * (p_f(X,1|i) - p_f(X,0|i))],
    so any objective of the form [sum_f F(N * p_f)] restricted to [y] has
    analytic first and second derivatives from the same [(p0, p1)]
    cofactor pairs — {!Minimize}'s Newton machinery and the fused
    {!Rt_testability.Oracle.cofactor_pair} query work for every instance.

    {b Per-coordinate convexity contract.}  An instance should be convex
    along a coordinate wherever the sweep actually evaluates it.  For the
    paper objective [F = exp] this holds globally (Lemma 3: [J'' >= 0]
    everywhere).  For {!n_detect} the Poisson tail [F_k] satisfies
    [F_k'' (lambda) >= 0] iff [lambda >= k - 1]; NORMALIZE certifies
    [N * p_f] well above [k - 1] for every relevant fault (it drives the
    per-fault miss term below the confidence budget, and [F_k (k - 1)] is
    [>= 0.4] for all [k]), so the contract holds on the region the sweep
    visits.  Outside it, {!Minimize.newton}'s bisection safeguard still
    converges to a coordinate-local minimum. *)

type t = {
  key : string;
      (** Stable identity for content-addressed artifacts and manifest
          config slices (e.g. ["single"], ["ndetect:2"]).  Two instances
          with the same key must compute the same function. *)
  label : string;  (** Human-readable description for reports and logs. *)
  term : n:float -> p:float -> float;
      (** Per-fault miss term [F(n * p)] — the summand of [value].  Must be
          [>= 0] and decreasing in both [n] and [p]; {!Normalize} builds its
          prefix bounds on [J_M] from this monotonicity, and stops a prefix
          sum once it exceeds the confidence budget, which is exact only
          because no term is negative. *)
  value : n:float -> float array -> float;  (** [J_N] over a [p_f] vector. *)
  value_along : n:float -> p0:float array -> p1:float array -> float -> float;
      (** [J_N(X, y|i)] from the cofactor pair of the scrutinised faults. *)
  derivatives_along :
    n:float -> p0:float array -> p1:float array -> float -> float * float;
      (** First and second derivative of [value_along] in [y], each a sum
          that starts at [+0.0] of one term per fault.  For finite [n],
          every term must be a multiple of [p1 - p0] (the chain rule's
          [dp/dy]), so a fault with [p0 = p1] adds [+0.0] or [-0.0] and
          changes neither sum; {!Minimize.newton} relies on this to drop
          such faults before its Newton steps. *)
  confidence : n:float -> float array -> float;
      (** [exp (-J_N)] — the eq. (1) approximation reported to the user. *)
}

val single : t
(** The paper's objective: [F = exp], key ["single"].  [single.value ~n pfs]
    is [J_N]; [single.derivatives_along] is paper eq. 13/14,
    [J' = sum -N b_f exp(-N p_f(y))], [J'' = sum (N b_f)^2 exp(-N p_f(y))]
    with [b_f = p1_f - p0_f], so [J'' >= 0] always; [single.confidence] is
    the eq. (1) approximation used throughout §2.3. *)

val n_detect : k:int -> t
(** [n_detect ~k] is [J_{N,n}(X) = sum_f P(fault f detected < k times)]
    via the Poisson tail [F_k(lambda) = exp(-lambda) sum_{j<k} lambda^j/j!]
    with [lambda = N * p_f] (Pomeranz & Reddy's n-detection criterion in
    the paper's random-test setting).  [k = 1] reduces analytically to
    {!single}.  Raises [Invalid_argument] when [k < 1].  Key
    ["ndetect:<k>"]. *)

val poisson_tail : k:int -> float -> float * float * float
(** [poisson_tail ~k lambda] is [(F_k, F_k', F_k'')] at [lambda] — exposed
    for property tests of the convexity contract. *)
