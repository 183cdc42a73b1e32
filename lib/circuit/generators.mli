(** Parameterised circuit generators.

    The paper evaluates on the ISCAS-85 benchmarks plus two custom circuits
    (S1: a 24-bit comparator built from six SN7485 slices; S2: the
    combinational part of a 32-bit divider).  The original netlists are not
    redistributable here, so this module generates functionally analogous
    circuits — see DESIGN.md §2 for the substitution argument.  All
    generators are deterministic. *)

(** {1 Arithmetic building blocks} *)

val ripple_adder :
  Builder.t ->
  Netlist.node array ->
  Netlist.node array ->
  Netlist.node ->
  Netlist.node array * Netlist.node
(** [(sums, carry_out)]; operands little-endian and of equal width. *)

val ripple_subtractor :
  Builder.t ->
  Netlist.node array ->
  Netlist.node array ->
  Netlist.node array * Netlist.node
(** [x - y] as [(difference, borrow_out)]; borrow-out true when [x < y]. *)

val comparator_slice_7485 :
  Builder.t ->
  a:Netlist.node array ->
  b:Netlist.node array ->
  lt_in:Netlist.node option ->
  eq_in:Netlist.node option ->
  gt_in:Netlist.node option ->
  Netlist.node * Netlist.node * Netlist.node
(** Gate-level 4-bit magnitude comparator in the style of the TI SN7485,
    cascadable; [None] cascade inputs mean the constant (0,1,0) assignment
    with the implied logic simplified away (the paper's "some redundancies
    are removed").  Result is [(a_lt_b, a_eq_b, a_gt_b)]. *)

val equality_comparator : Builder.t -> Netlist.node array -> Netlist.node array -> Netlist.node
(** Wide AND of XNORs — the canonical random-pattern-resistant structure. *)

val parity : Builder.t -> Netlist.node array -> Netlist.node
(** Balanced XOR tree. *)

val decoder : Builder.t -> Netlist.node array -> Netlist.node array
(** [decoder b sel] is the 2^n one-hot lines of an n-to-2^n decoder. *)

val alu :
  Builder.t ->
  op:Netlist.node array ->
  a:Netlist.node array ->
  b:Netlist.node array ->
  cin:Netlist.node ->
  Netlist.node array * Netlist.node * Netlist.node
(** Datapath ALU: 3-bit [op] selects ADD, SUB, AND, OR, XOR, NOT-A, PASS-A,
    PASS-B; returns [(result, carry_out, zero_flag)].  The zero flag is a
    wide NOR — a deliberate source of low-probability signals. *)

(** {1 Paper circuits} *)

val s1_comparator : unit -> Netlist.t
(** S1: 24-bit magnitude comparator from six cascaded SN7485-style slices
    (paper Fig. 1): 48 inputs, 3 outputs. *)

val s2_divider : ?width:int -> unit -> Netlist.t
(** S2: combinational restoring array divider; [width]-bit dividend and
    divisor (default 16; the paper's original is 32 — pass [~width:32] for
    full scale).  Outputs quotient and remainder. *)

(** {1 ISCAS-85-like synthetic equivalents}

    Named [cNNNish] after the benchmark whose role they play.  Gate counts
    are of the same order; more importantly each reproduces the hard-fault
    population that makes (or does not make) its namesake random-pattern
    resistant. *)

val c432ish : unit -> Netlist.t
(** Priority interrupt controller: 4 channels x 9 request lines. *)

val c499ish : unit -> Netlist.t
(** 32-bit single-error-correction circuit (syndrome + decode + correct),
    XOR-rich. *)

val c880ish : unit -> Netlist.t
(** 8-bit ALU with control decode. *)

val c1355ish : unit -> Netlist.t
(** Same function as {!c499ish} with XORs expanded into NAND4 blocks, as the
    real C1355 expands C499. *)

val c1908ish : unit -> Netlist.t
(** 16-bit SEC/DED checker (adds double-error detection). *)

val c2670ish : unit -> Netlist.t
(** 12-bit ALU plus wide equality comparators behind enable chains — the
    random-resistant circuit of the paper's Tables 1-4. *)

val c3540ish : unit -> Netlist.t
(** 8-bit ALU with mode decoding and saturation flags. *)

val c5315ish : unit -> Netlist.t
(** 9-bit ALU with dual datapaths and comparison outputs. *)

val c6288ish : ?width:int -> unit -> Netlist.t
(** Array multiplier, default 16x16 (~2400 gates like C6288). *)

val c7552ish : unit -> Netlist.t
(** 32-bit adder + 32-bit magnitude comparator + parity — random-resistant
    like C7552. *)

(** {1 Pathological and synthetic circuits} *)

val antagonist : ?k:int -> unit -> Netlist.t
(** §5.3 limit case: a wide AND and a wide NOR over the {e same} [k] inputs
    (default 12).  Their output stuck-at-0 faults need all-ones resp.
    all-zeros patterns: no single distribution serves both. *)

val wide_and : int -> Netlist.t
(** Single [n]-input AND; the textbook hard-to-test-randomly circuit. *)

val random_circuit : inputs:int -> gates:int -> seed:int -> Netlist.t
(** Random reconvergent DAG over [And;Or;Nand;Nor;Xor;Not] used by property
    tests; every gate reaches an output. *)

(** {1 Registry} *)

val paper_suite : (string * (unit -> Netlist.t)) list
(** The twelve circuits of the paper's Table 1, in table order: s1, s2,
    c432ish, c499ish, c880ish, c1355ish, c1908ish, c2670ish, c3540ish,
    c5315ish, c6288ish, c7552ish. *)

val by_name : string -> (unit -> Netlist.t) option
(** Lookup across [paper_suite] plus [antagonist]/[wide_and-N] and the
    parameterised widths [s2:W] and [c6288ish:W]. *)
