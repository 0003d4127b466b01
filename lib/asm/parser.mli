(** Parser for the AT&T-syntax subset emitted by {!Printer}.  Intended
    for round-tripping protected programs through text (tests, CLI,
    external inspection), not for arbitrary compiler output. *)

exception Parse_error of string

(** Parse one instruction line (without label or directive); trailing
    "#" comments are ignored.  Raises {!Parse_error}. *)
val parse_instr : string -> Instr.t

(** Parse a whole program in {!Printer.program_to_string} format: ".globl"
    directives open functions, "label:" lines open blocks, and
    provenance is restored from the trailing comment markers.  Raises
    {!Parse_error}. *)
val program : string -> Prog.t
