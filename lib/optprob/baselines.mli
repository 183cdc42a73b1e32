(** Baseline input-probability strategies the paper compares against or
    cites as prior work (§2.2). *)

val equiprobable : Rt_testability.Oracle.t -> confidence:float -> float
(** Required test length of the conventional random test (all 0.5) — the
    paper's Table 1 column. *)

val lieberherr :
  ?grid:float list ->
  Rt_testability.Oracle.t ->
  confidence:float ->
  float * float
(** Parameterised random testing [Lieb84]: one shared probability [p] for
    every input; returns [(best_p, required_n)] after scanning [grid]
    (default 0.05 .. 0.95 step 0.05).  Captures "set k of n inputs to 1"
    in expectation. *)

val max_output_entropy :
  ?iterations:int -> ?grid:float list -> Rt_circuit.Netlist.t -> float array
(** Information-theoretic weights in the spirit of [Agra81]/[AgSe82]:
    coordinate ascent maximising the sum of output-signal entropies under
    the independence estimate.  The paper criticises this family because
    "the real fault model and fault coverage are not directly involved" —
    the benches quantify that criticism. *)

val required_for :
  Rt_testability.Oracle.t -> confidence:float -> float array -> float
(** Required test length of an arbitrary weight vector under the oracle. *)
