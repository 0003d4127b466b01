(** Spare-register discovery (paper §III-B1).

    FERRUM scans every instruction of a function and records which
    general-purpose and SIMD registers the program uses; the complement
    — minus RSP/RBP always, and minus the calling-convention registers
    when the function makes calls — is available for duplication. *)

open Ferrum_asm

module GSet : Set.S with type elt = Reg.gpr
module ISet : Set.S with type elt = int

type t = {
  used_gprs : GSet.t;
  spare_gprs : Reg.gpr list;  (** stable, preference-ordered *)
  used_simd : ISet.t;
  spare_simd : int list;
}

(** Preference order for spares, mirroring the paper's examples (R10 for
    duplication, R11/R12 for the flag pair). *)
val preference : Reg.gpr list

val analyze_func : Prog.func -> t
