(** One-dimensional minimisation of the objective along a coordinate —
    the paper's MINIMIZE procedure (eq. 15).

    For the paper objective, [J_N(X, y|i)] is strictly convex in [y]
    (Lemma 3) and, because the input stuck-at faults are in [F], diverges
    from the optimum towards the boundary (Lemma 2), so the minimum over
    [[lo, hi]] is unique: Newton iteration [y <- y - J'/J''] with a
    bisection safeguard always converges to it.  Other {!Objective}
    instances are convex on their contract region; the bisection safeguard
    keeps the search convergent to a coordinate-local minimum outside
    it. *)

type result = {
  y : float;  (** the minimising weight *)
  iterations : int;
}

val newton :
  ?objective:Objective.t ->
  ?lo:float ->
  ?hi:float ->
  ?tol:float ->
  ?max_iter:int ->
  n:float ->
  p0:float array ->
  p1:float array ->
  float ->
  result
(** [newton ~n ~p0 ~p1 y_start] minimises over [[lo, hi]] (default
    [[0.01, 0.99]], [tol = 1e-6], [max_iter = 60]).  [p0]/[p1] are the
    cofactor detection probabilities of the relevant faults.  [objective]
    (default {!Objective.single}) supplies the derivatives; the restricted
    value itself is never evaluated, since no caller reads it.  The Newton
    steps evaluate the derivatives over the faults with [p0 <> p1] only
    (the others contribute exact zeros).  Raises [Invalid_argument] when
    [lo >= hi] or when [p0] and [p1] differ in length. *)
