(** Assembly program structure: labelled basic blocks grouped into
    functions.  Control falls through from the end of a block to the
    next block in list order unless the last instruction is a barrier
    (unconditional jump or return), exactly as in assembly text. *)

type block = { label : string; insns : Instr.ins list }

type func = { fname : string; blocks : block list }

type t = { funcs : func list; entry : string }

(** Reserved label reached by checkers on a mismatch; the machine halts
    with outcome [Detected] when control transfers here (the paper's
    listings use the same name). *)
val exit_function_label : string

(** Builtin recognised by the machine: appends %rdi to the observable
    program output. *)
val builtin_print : string

(** Builtin recognised by the machine: halts with outcome [Detected]
    (used by the IR-level detector blocks). *)
val builtin_detect : string

val block : string -> Instr.ins list -> block
val func : string -> block list -> func

(** Build a program; the entry function defaults to ["main"]. *)
val program : ?entry:string -> func list -> t

(** Static instruction count of the whole program (the paper's §IV-B3
    correlates FERRUM's transform time with this number). *)
val num_instructions : t -> int

val map_funcs : (func -> func) -> t -> t

exception Ill_formed of string

(** Raise {!Ill_formed} with a formatted message. *)
val ill_formed : ('a, Format.formatter, unit, 'b) format4 -> 'a

(** Structural validation: unique labels, resolvable jump targets and
    callees, legal scale factors, and no function whose control falls
    off the end.  Raises {!Ill_formed} otherwise. *)
val validate : t -> unit

(** [(originals, dups, checks, instrumentation)] instruction counts. *)
val provenance_counts : t -> int * int * int * int
