(** Static statistics over assembly programs: instruction-class
    histograms, provenance counts and code-size expansion factors. *)

type t = {
  total : int;
  by_class : (Instr.klass * int) list;
  originals : int;
  dups : int;
  checks : int;
  instrumentation : int;
}

val of_program : Prog.t -> t

(** Static code-size expansion of a protected program over its baseline
    (e.g. 3.4 means 3.4x more instructions). *)
val expansion : baseline:t -> protected_:t -> float

val pp : Format.formatter -> t -> unit
