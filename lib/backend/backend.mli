(** Backend compiler: mini-IR to x86-64 subset assembly.

    The lowering mirrors clang -O0: every virtual register lives in a
    stack slot, operands are reloaded before use, branch conditions are
    re-materialised from memory with a compare against zero (the paper's
    Figs. 8-9), and calls marshal arguments through the System-V
    argument registers.  These backend-introduced instructions are the
    "additional unprotected footprint" (paper §IV-B2) that costs
    IR-level EDDI its coverage at assembly level.

    Generated code uses RAX/RCX/RDX as scratch and the argument
    registers at calls; RBX and R10-R15 are never touched, and no SIMD
    register is ever used — the under-utilisation FERRUM exploits. *)

open Ferrum_asm
open Ferrum_ir

exception Error of string

(** IR-level protection passes insert shadow and checker IR code; this
    oracle lets them tag it so the lowered assembly carries the right
    provenance (the fault injector and the cycle model distinguish
    program code from protection code). *)
type prov_oracle = {
  instr_prov : fname:string -> Ir.instr -> Instr.provenance;
  term_prov : fname:string -> label:string -> Ir.terminator -> Instr.provenance;
  block_prov : fname:string -> label:string -> Instr.provenance option;
      (** whole-block override, e.g. detector blocks *)
}

(** Compile a module (it is verified first).  Globals receive fixed
    addresses from 0x1000 upward; the result passes
    {!Ferrum_asm.Prog.validate}.  Raises {!Error} on unsupported shapes
    (e.g. more than six call arguments). *)
val compile : ?oracle:prov_oracle -> Ir.modul -> Prog.t
