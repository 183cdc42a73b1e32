(** ISCAS-85 [.bench] netlist reader and writer.

    The textual format used by the 1985 benchmark distribution:
    [# comment], [INPUT(g)], [OUTPUT(g)], [g = NAND(a, b, ...)].
    Declarations may appear in any order; the parser topologically sorts
    them.  Only combinational gate types are accepted (no [DFF]). *)

exception Parse_error of { file : string; line : int; msg : string }
(** The file, the 1-based line of the offending declaration and a
    message.  A file that declares no [OUTPUT] is reported at its last
    line. *)

val parse : ?file:string -> string -> Netlist.t
(** Parse from the full file contents; [file] (default ["-"]) only names
    the text in a {!Parse_error}. *)

val load : string -> Netlist.t
(** [load path] reads and parses a file. *)

val print : Format.formatter -> Netlist.t -> unit
(** Emit [.bench] text; [Buf] alias nodes are emitted as [BUFF], constants
    as 0-input gates spelled [CONST0]/[CONST1] (a common extension). *)

val to_string : Netlist.t -> string

val save : string -> Netlist.t -> unit
