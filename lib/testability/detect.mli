(** Fault detection probability oracles — the paper's ANALYSIS step.

    The optimizer only needs a function [X -> p_f(X)] for the fault list;
    the paper uses PROTEST and remarks that "with slight modifications
    PREDICT or STAFAN will presumably work as well".  This module offers
    four interchangeable oracles behind one interface:

    - [Cop]: analytic activation x observability estimate (fast; the
      default ANALYSIS engine, playing PROTEST's role);
    - [Conditioned]: COP Shannon-expanded over the worst reconvergence
      sources (PREDICT's role);
    - [Bdd_exact]: exact detection probabilities from per-fault boolean
      difference BDDs built once and re-evaluated per [X] in linear time.
      Each is the fault's activation AND its line's difference to the
      root of its fanout-free region (built once per node) AND that
      root's observability (built once per root, by difference
      propagation); falls back to [Cop] for faults whose BDD exceeds the
      node limit;
    - [Stafan]: counting-based estimate from fresh weighted simulation;
    - [Monte_carlo]: direct fault-simulation estimate.

    Every engine is constructed as a value of the engine-agnostic
    {!Oracle.t} protocol, and all queries go through {!Oracle}
    ({!Oracle.probs}, {!Oracle.probs_plan}, {!Oracle.cofactor_pair}, ...).
    Each engine has one evaluation kernel, its plan query; {!Oracle.probs}
    is that query over an all-faults plan built once by {!make}.  Each
    engine does only a plan's share of the work:
    COP/conditioned restrict their signal-probability and observability
    sweeps to the union of the selected faults' cones, the exact engine
    evaluates only the selected detection BDDs (skipping whole generations
    none of them landed in), STAFAN restricts its observability sweep, and
    Monte-Carlo simulates only the selected faults.  Each constructor also
    registers the engine's fused cofactor implementation when it has one
    (incremental damage-cone re-evaluation for COP and for conditioned
    COP with up to 8 conditioning variables, a paired traversal for the
    exact BDDs, a recorded and replayed pattern base for STAFAN /
    Monte-Carlo). *)

type engine =
  | Cop
  | Conditioned of { max_vars : int }
      (** PREDICT-style ([ABS86]): the COP estimate Shannon-expanded over
          the [max_vars] highest-fanout inputs (cost [2^max_vars] COP
          sweeps per call). *)
  | Bdd_exact of { node_limit : int }
  | Stafan of { n_patterns : int; seed : int }
  | Monte_carlo of { n_patterns : int; seed : int }

val conditioning_set : ?max_vars:int -> Rt_circuit.Netlist.t -> Rt_circuit.Netlist.node array
(** The inputs with the largest fanout (at least 2), up to [max_vars]
    (default 8) — the reconvergence sources [Conditioned] expands over.
    Raises [Invalid_argument] outside [0 .. 16]. *)

type obs_build =
  | Delta  (** propagate [good_g XOR flipped_g] from the root *)
  | Flipped  (** rebuild the fanout cone with the root inverted *)

val root_observability :
  ?build:obs_build ->
  Rt_circuit.Netlist.t ->
  Rt_bdd.Bdd.manager ->
  good:Rt_bdd.Bdd.t array ->
  Rt_circuit.Netlist.node ->
  Rt_bdd.Bdd.t
(** [root_observability c m ~good r] is the exact engine's [obs_r]: the
    condition under which inverting node [r] flips some output, given the
    good-circuit BDDs [good] built in [m].  [build] forces one of the two
    constructions (default: {!obs_build_for}); both return the same
    canonical BDD. *)

val obs_build_for : Rt_circuit.Netlist.t -> Rt_circuit.Netlist.node -> obs_build
(** The construction the exact engine uses for root [r]: [Flipped] when,
    in [r]'s fanout cone, the gates other than BUF/NOT/XOR/XNOR that read
    the cone on two or more pins outnumber the BUF/NOT/XOR/XNOR gates. *)

val make : ?jobs:int -> engine -> Rt_circuit.Netlist.t -> Rt_fault.Fault.t array -> Oracle.t
(** Performs all per-circuit precomputation (e.g. BDD construction and
    the all-faults plan) so that repeated {!Oracle.probs} calls are cheap.
    [jobs] (default: the [OPTPROB_JOBS] environment variable, else 1)
    shares per-fault work across that many domains in the COP,
    conditioned and Monte-Carlo engines; every engine's results are
    bit-identical at every [jobs]. *)
