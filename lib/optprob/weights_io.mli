(** Reading and writing weight vectors (optimized input probabilities).

    Format: one [input_name value] pair per line, [#] comments allowed —
    the machine-readable version of the paper's appendix listings. *)

val save : string -> Rt_circuit.Netlist.t -> float array -> unit

val load : string -> Rt_circuit.Netlist.t -> float array
(** Missing inputs default to 0.5.  An unknown input name, an input
    named on a second line, a malformed line, or a value that is not a number, not finite or outside
    [\[0,1\]] raises [Failure "weights file PATH line N: ..."]; an
    unreadable file raises [Failure "weights file PATH: ..."].  The
    channel is closed on every path. *)

val pp : Rt_circuit.Netlist.t -> Format.formatter -> float array -> unit
(** Compact appendix-style listing, grouping equal consecutive weights. *)
