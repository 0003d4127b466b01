(** Assembly-level duplication of GENERAL-INSTRUCTIONS (paper §III-B2,
    Fig. 4): re-execute an instruction into a spare register and compare
    the two results.

    Re-executable instructions (moves, movslq, lea, setcc) run the
    duplicate first, so an original that overwrites one of its sources
    (Fig. 4's [movslq %ecx, %rcx]) still duplicates correctly;
    accumulator instructions copy the destination into the spare and
    apply the operation to the copy; [cqto]/[idiv] use bespoke
    multi-spare sequences; [pop] is verified against the still-intact
    stack slot just below the new top and needs no spare at all. *)

open Ferrum_asm

exception Unprotectable of string

(** The immediate Fig. 4 checker: [cmp dup, %orig; jne target]
    ([target] defaults to the detector label). *)
val checker :
  ?target:string -> Reg.size -> orig:Reg.gpr -> dup:Instr.operand ->
  Instr.ins list

(** Spare registers {!protect} needs: 4 for [idiv], 0 for [pop], 1
    otherwise (0 for instructions with no GPR destination). *)
val spares_needed : Instr.t -> int

(** A comparison owed after the duplicate has executed: the original
    register against the duplicate value (a spare register, or for pop
    the stack slot).  FERRUM batches these through SIMD; the hybrid
    baseline materialises them immediately. *)
type owed_check = { orig : Reg.gpr; dup : Instr.operand; width : Reg.size }

(** Duplicate one instruction, returning the replacement sequence
    without checkers plus the comparisons owed.  The spares must not be
    mentioned by the instruction.  Raises {!Unprotectable}. *)
val protect_parts :
  spares:Reg.gpr list -> Instr.ins -> Instr.ins list * owed_check list

(** Fig. 4 protection with immediate checkers, as the hybrid baseline
    deploys it. *)
val protect :
  ?target:string -> spares:Reg.gpr list -> Instr.ins -> Instr.ins list

(** True when {!protect} applies to the instruction. *)
val protectable : Instr.t -> bool
