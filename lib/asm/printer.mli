(** AT&T-syntax pretty printer.  [program_to_string] output is accepted
    by {!Parser.program}; the round trip preserves instructions and
    provenance (property-tested). *)

(** One instruction, without indentation or provenance comment. *)
val string_of_instr : Instr.t -> string

val program_to_string : ?comments:bool -> Prog.t -> string
