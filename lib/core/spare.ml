(* Spare-register discovery (paper §III-B1).

   FERRUM scans every instruction of a function and records which
   general-purpose and SIMD registers the program uses; the complement
   (minus RSP/RBP and the calling-convention registers when the function
   makes or receives calls) is available for duplication.  FERRUM needs
   at least one general spare for GENERAL-INSTRUCTIONS, two reserved
   spares for comparison protection and four spare XMM registers for
   SIMD-batched checking; below those thresholds it falls back to
   stack-level requisition (paper §III-B4, our Requisition module). *)

open Ferrum_asm

module GSet = Set.Make (struct
  type t = Reg.gpr

  let compare = Reg.compare_gpr
end)

module ISet = Set.Make (Int)

type t = {
  used_gprs : GSet.t;
  spare_gprs : Reg.gpr list; (* stable, preference-ordered *)
  used_simd : ISet.t;
  spare_simd : int list;
}

(* Registers that participate in the calling convention; a function that
   contains calls may have live values in them at call boundaries even
   when they never appear syntactically. *)
let call_clobbered = Reg.[ RAX; RCX; RDX; RSI; RDI; R8; R9 ]

let never_spare = Reg.[ RSP; RBP ]

(* Preference order for spares: high registers first, mirroring the
   paper's examples (r10 for duplication, r11/r12 for the flag pair). *)
let preference =
  Reg.[ R10; R11; R12; R13; R14; R15; RBX; R9; R8; RSI; RDI; RDX; RCX; RAX ]

let analyze_func (f : Prog.func) =
  let used = ref GSet.empty in
  let used_simd = ref ISet.empty in
  let has_call = ref false in
  List.iter
    (fun (b : Prog.block) ->
      List.iter
        (fun (i : Instr.ins) ->
          List.iter (fun r -> used := GSet.add r !used) (Instr.gprs_mentioned i.op);
          List.iter (fun x -> used_simd := ISet.add x !used_simd)
            (Instr.simds_mentioned i.op);
          match i.op with Instr.Call _ -> has_call := true | _ -> ())
        b.insns)
    f.blocks;
  let blocked =
    if !has_call then GSet.union !used (GSet.of_list call_clobbered)
    else !used
  in
  let blocked = GSet.union blocked (GSet.of_list never_spare) in
  let spare_gprs = List.filter (fun r -> not (GSet.mem r blocked)) preference in
  let spare_simd =
    List.filter (fun x -> not (ISet.mem x !used_simd)) [ 15; 14; 13; 12; 11; 10; 9; 8; 7; 6; 5; 4; 3; 2; 1; 0 ]
  in
  { used_gprs = !used; spare_gprs; used_simd = !used_simd; spare_simd }
