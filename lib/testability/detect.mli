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
      Each is the fault's activation at the root of its fanout-free region
      AND that root's observability, built once per root; falls back to
      [Cop] for faults whose BDD exceeds the node limit;
    - [Stafan]: counting-based estimate from fresh weighted simulation;
    - [Monte_carlo]: direct fault-simulation estimate.

    Every engine is constructed as a value of the engine-agnostic
    {!Oracle.t} protocol, and all queries go through {!Oracle}
    ({!Oracle.probs}, {!Oracle.probs_subset}, {!Oracle.cofactor_pair}, ...).
    Each engine does only a subset's share of the work on subset queries:
    COP/conditioned restrict their signal-probability and observability
    sweeps to the union of the selected faults' cones, the exact engine
    evaluates only the selected detection BDDs (skipping whole generations
    none of them landed in), STAFAN restricts its observability sweep, and
    Monte-Carlo simulates only the selected faults.  Each constructor also
    registers the engine's fused cofactor implementation when it has one
    (incremental damage-cone re-evaluation for COP and serial conditioned
    COP, a paired traversal for the exact BDDs, a recorded and replayed
    pattern base for STAFAN / Monte-Carlo). *)

type engine =
  | Cop
  | Conditioned of { max_vars : int }
      (** PREDICT-style ([ABS86]): the COP estimate Shannon-expanded over
          the [max_vars] highest-fanout inputs (cost [2^max_vars] COP
          sweeps per call). *)
  | Bdd_exact of { node_limit : int }
  | Stafan of { n_patterns : int; seed : int }
  | Monte_carlo of { n_patterns : int; seed : int }

val make : ?jobs:int -> engine -> Rt_circuit.Netlist.t -> Rt_fault.Fault.t array -> Oracle.t
(** Performs all per-circuit precomputation (e.g. BDD construction) so that
    repeated {!Oracle.probs} calls are cheap.  [jobs] (default: the
    [OPTPROB_JOBS] environment variable, else 1) shards per-fault and
    per-assignment work across that many domains in the COP, conditioned
    and Monte-Carlo engines; [jobs = 1] is bit-identical to the serial
    implementation. *)
