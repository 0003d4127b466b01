(* Backend compiler: mini-IR to x86-64 subset assembly.

   The lowering mirrors clang -O0: every virtual register lives in a
   stack slot, every operand is reloaded before use, branch conditions
   are re-materialised from memory with a compare against zero (paper
   Figs. 8-9), and calls marshal arguments through the System-V argument
   registers.  These backend-introduced instructions are exactly the
   "additional unprotected footprint" (paper §IV-B2) that makes IR-level
   EDDI lose coverage when faults are injected at assembly level.

   Register usage of generated code: RAX/RCX/RDX as scratch, RDI/RSI/
   RDX/RCX/R8/R9 at call sites, RBP/RSP for the frame.  RBX and R10-R15
   are never used, which is the under-utilisation FERRUM's spare-register
   analysis discovers.  No SIMD register is ever used by generated code. *)

open Ferrum_asm
open Ferrum_ir

exception Error of string

let error fmt = Fmt.kstr (fun s -> raise (Error s)) fmt

(* Base address of the global data region in simulator memory.  The
   stack grows down from the top of memory; keeping globals low keeps
   the two apart for any memory size >= 64 KiB. *)
let global_base = 0x1000

let arg_regs = Reg.[ RDI; RSI; RDX; RCX; R8; R9 ]

(* IR-level protection passes insert shadow and checker IR instructions;
   this oracle lets them tag that code so the lowered assembly carries
   the right provenance (the fault injector and the cycle model both
   distinguish program code from protection code). *)
type prov_oracle = {
  instr_prov : fname:string -> Ir.instr -> Instr.provenance;
  term_prov : fname:string -> label:string -> Ir.terminator -> Instr.provenance;
  block_prov : fname:string -> label:string -> Instr.provenance option;
}

let default_oracle =
  {
    instr_prov = (fun ~fname:_ _ -> Instr.Original);
    term_prov = (fun ~fname:_ ~label:_ _ -> Instr.Original);
    block_prov = (fun ~fname:_ ~label:_ -> None);
  }

type env = {
  slot_of_vreg : (int, int) Hashtbl.t; (* vreg -> rbp displacement *)
  alloca_off : (int, int) Hashtbl.t; (* alloca dst vreg -> rbp displacement *)
  global_addr : (string, int) Hashtbl.t;
  frame_size : int;
}

let slot env r =
  match Hashtbl.find_opt env.slot_of_vreg r with
  | Some disp -> Instr.mem ~base:Reg.RBP disp
  | None -> error "no slot for vreg %%%d" r

(* ------------------------------------------------------------------ *)
(* Frame layout.                                                       *)
(* ------------------------------------------------------------------ *)

let layout_frame (f : Ir.func) global_addr =
  let slot_of_vreg = Hashtbl.create 64 in
  let alloca_off = Hashtbl.create 16 in
  let next = ref 0 in
  let assign_slot r =
    if not (Hashtbl.mem slot_of_vreg r) then begin
      next := !next + 8;
      Hashtbl.replace slot_of_vreg r (- !next)
    end
  in
  List.iter (fun (r, _) -> assign_slot r) f.params;
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun i -> match Ir.def i with Some d -> assign_slot d | None -> ())
        b.body)
    f.blocks;
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun i ->
          match i with
          | Ir.Alloca { dst; bytes } ->
            let aligned = (bytes + 7) / 8 * 8 in
            next := !next + aligned;
            Hashtbl.replace alloca_off dst (- !next)
          | _ -> ())
        b.body)
    f.blocks;
  let frame_size = (!next + 15) / 16 * 16 in
  { slot_of_vreg; alloca_off; global_addr; frame_size }

(* ------------------------------------------------------------------ *)
(* Instruction selection.                                              *)
(* ------------------------------------------------------------------ *)

let size_of_ty = function
  | Ir.I1 -> Reg.B
  | Ir.I32 -> Reg.D
  | Ir.I64 | Ir.Ptr -> Reg.Q

let cc_of_pred = function
  | Ir.Eq -> Cond.E
  | Ir.Ne -> Cond.NE
  | Ir.Slt -> Cond.L
  | Ir.Sle -> Cond.LE
  | Ir.Sgt -> Cond.G
  | Ir.Sge -> Cond.GE
  | Ir.Ult -> Cond.B
  | Ir.Ule -> Cond.BE
  | Ir.Ugt -> Cond.A
  | Ir.Uge -> Cond.AE

(* Emit code loading [v] into register [r] at the width of [ty].
   Returns instructions in order. *)
let load_value env ty v r =
  let sz = size_of_ty ty in
  match v with
  | Ir.Vreg vr -> (
    match Hashtbl.find_opt env.alloca_off vr with
    | Some disp ->
      (* the value of an alloca is the address of its frame area *)
      [ Instr.Lea (Instr.mem ~base:Reg.RBP disp, r) ]
    | None -> [ Instr.Mov (sz, Instr.Mem (slot env vr), Instr.Reg r) ])
  | Ir.Const (_, c) -> [ Instr.Mov (sz, Instr.Imm c, Instr.Reg r) ]
  | Ir.Global g -> (
    match Hashtbl.find_opt env.global_addr g with
    | Some a -> [ Instr.Mov (Reg.Q, Instr.Imm (Int64.of_int a), Instr.Reg r) ]
    | None -> error "unknown global @%s" g)

(* Store register [r] into the slot of vreg [d] at type width. *)
let store_result env ty d r =
  [ Instr.Mov (size_of_ty ty, Instr.Reg r, Instr.Mem (slot env d)) ]

let lower_binop env (i : Ir.instr) =
  match i with
  | Ir.Binop { dst; op; ty; a; b } -> (
    let sz = size_of_ty ty in
    let la = load_value env ty a Reg.RAX in
    match op with
    | Ir.Sdiv | Ir.Srem ->
      if ty <> Ir.I64 then error "division only lowered at i64";
      la
      @ load_value env ty b Reg.RCX
      @ [ Instr.Cqto; Instr.Idiv (Reg.Q, Instr.Reg Reg.RCX) ]
      @ store_result env ty dst (if op = Ir.Sdiv then Reg.RAX else Reg.RDX)
    | Ir.Shl | Ir.Ashr | Ir.Lshr -> (
      let kind =
        match op with
        | Ir.Shl -> Instr.Shl
        | Ir.Ashr -> Instr.Sar
        | _ -> Instr.Shr
      in
      match b with
      | Ir.Const (_, c) ->
        la
        @ [ Instr.Shift (kind, sz, Instr.Amt_imm (Int64.to_int c), Instr.Reg Reg.RAX) ]
        @ store_result env ty dst Reg.RAX
      | _ ->
        la
        @ load_value env ty b Reg.RCX
        @ [ Instr.Shift (kind, sz, Instr.Amt_cl, Instr.Reg Reg.RAX) ]
        @ store_result env ty dst Reg.RAX)
    | Ir.Add | Ir.Sub | Ir.Mul | Ir.And | Ir.Or | Ir.Xor ->
      let alu =
        match op with
        | Ir.Add -> Instr.Add
        | Ir.Sub -> Instr.Sub
        | Ir.Mul -> Instr.Imul
        | Ir.And -> Instr.And
        | Ir.Or -> Instr.Or
        | _ -> Instr.Xor
      in
      la
      @ load_value env ty b Reg.RCX
      @ [ Instr.Alu (alu, sz, Instr.Reg Reg.RCX, Instr.Reg Reg.RAX) ]
      @ store_result env ty dst Reg.RAX)
  | _ -> assert false

let lower_instr env (i : Ir.instr) : Instr.t list =
  match i with
  | Ir.Alloca _ -> [] (* static frame space; address taken via load_value *)
  | Ir.Load { dst; ty; ptr } ->
    load_value env Ir.Ptr ptr Reg.RAX
    @ (match ty with
      | Ir.I1 ->
        [ Instr.Movzbq (Instr.Mem (Instr.mem ~base:Reg.RAX 0), Reg.RCX) ]
      | _ ->
        [ Instr.Mov (size_of_ty ty, Instr.Mem (Instr.mem ~base:Reg.RAX 0),
            Instr.Reg Reg.RCX) ])
    @ store_result env ty dst Reg.RCX
  | Ir.Store { ty; v; ptr } ->
    load_value env ty v Reg.RCX
    @ load_value env Ir.Ptr ptr Reg.RAX
    @ [ Instr.Mov (size_of_ty ty, Instr.Reg Reg.RCX,
          Instr.Mem (Instr.mem ~base:Reg.RAX 0)) ]
  | Ir.Binop _ -> lower_binop env i
  | Ir.Icmp { dst; pred; ty; a; b } ->
    load_value env ty a Reg.RAX
    @ load_value env ty b Reg.RCX
    @ [ Instr.Cmp (size_of_ty ty, Instr.Reg Reg.RCX, Instr.Reg Reg.RAX);
        Instr.Set (cc_of_pred pred, Instr.Reg Reg.RAX) ]
    @ store_result env Ir.I1 dst Reg.RAX
  | Ir.Gep { dst; base; index; scale } ->
    load_value env Ir.Ptr base Reg.RAX
    @ load_value env Ir.I64 index Reg.RCX
    @ [ Instr.Lea (Instr.mem ~base:Reg.RAX ~index:Reg.RCX ~scale 0, Reg.RAX) ]
    @ store_result env Ir.Ptr dst Reg.RAX
  | Ir.Cast { dst; kind; v } -> (
    match kind with
    | Ir.Sext_i32_i64 ->
      load_value env Ir.I32 v Reg.RAX
      @ [ Instr.Movslq (Instr.Reg Reg.RAX, Reg.RAX) ]
      @ store_result env Ir.I64 dst Reg.RAX
    | Ir.Trunc_i64_i32 ->
      load_value env Ir.I64 v Reg.RAX @ store_result env Ir.I32 dst Reg.RAX
    | Ir.Zext_i1_i64 ->
      load_value env Ir.I1 v Reg.RAX
      @ [ Instr.Movzbq (Instr.Reg Reg.RAX, Reg.RAX) ]
      @ store_result env Ir.I64 dst Reg.RAX)
  | Ir.Call { dst; callee; args } ->
    if List.length args > List.length arg_regs then
      error "call @%s: too many arguments" callee;
    List.concat
      (List.mapi
         (fun k a -> load_value env Ir.I64 a (List.nth arg_regs k))
         args)
    @ [ Instr.Call callee ]
    @ (match dst with
      | Some d -> store_result env Ir.I64 d Reg.RAX
      | None -> [])

(* Lower a terminator.  Conditional branches re-materialise the i1 from
   its slot with a compare against zero — the paper's Fig. 9 pattern and
   a fault-injection site invisible at IR level. *)
let lower_term env (t : Ir.terminator) : Instr.t list =
  match t with
  | Ir.Jmp l -> [ Instr.Jmp l ]
  | Ir.Br { cond; ifso; ifnot } -> (
    match cond with
    | Ir.Const (_, c) ->
      [ Instr.Jmp (if Int64.equal c 0L then ifnot else ifso) ]
    | Ir.Vreg r ->
      [ Instr.Cmp (Reg.B, Instr.Imm 0L, Instr.Mem (slot env r));
        Instr.Jcc (Cond.E, ifnot); Instr.Jmp ifso ]
    | Ir.Global _ -> error "branch on global")
  | Ir.Ret v ->
    (match v with
    | Some v -> load_value env Ir.I64 v Reg.RAX
    | None -> [])
    @ [ Instr.Mov (Reg.Q, Instr.Reg Reg.RBP, Instr.Reg Reg.RSP);
        Instr.Pop Reg.RBP; Instr.Ret ]

let lower_func oracle global_addr (f : Ir.func) : Prog.func =
  let env = layout_frame f global_addr in
  let prologue =
    [ Instr.Push (Instr.Reg Reg.RBP);
      Instr.Mov (Reg.Q, Instr.Reg Reg.RSP, Instr.Reg Reg.RBP);
      Instr.Alu (Instr.Sub, Reg.Q, Instr.Imm (Int64.of_int env.frame_size),
        Instr.Reg Reg.RSP) ]
    @ List.concat
        (List.mapi
           (fun k (r, ty) ->
             if k >= List.length arg_regs then
               error "@%s: too many parameters" f.name
             else store_result env ty r (List.nth arg_regs k))
           f.params)
  in
  let blocks =
    List.mapi
      (fun bi (b : Ir.block) ->
        let bprov = oracle.block_prov ~fname:f.name ~label:b.label in
        let tag default code =
          let prov = match bprov with Some p -> p | None -> default in
          List.map (fun op -> Instr.{ op; prov }) code
        in
        let body =
          List.concat_map
            (fun i ->
              tag (oracle.instr_prov ~fname:f.name i) (lower_instr env i))
            b.body
        in
        let term =
          tag
            (oracle.term_prov ~fname:f.name ~label:b.label b.term)
            (lower_term env b.term)
        in
        let prologue_tagged = List.map Instr.original (if bi = 0 then prologue else []) in
        Prog.block b.label (prologue_tagged @ body @ term))
      f.blocks
  in
  Prog.func f.name blocks

(* Compile a verified module to an assembly program.  Globals receive
   fixed addresses starting at [global_base]. *)
let compile ?(oracle = default_oracle) (m : Ir.modul) : Prog.t =
  Verify.run m;
  let global_addr = Hashtbl.create 16 in
  let next = ref global_base in
  List.iter
    (fun (g, bytes) ->
      Hashtbl.replace global_addr g !next;
      next := !next + ((bytes + 15) / 16 * 16))
    m.globals;
  let funcs = List.map (lower_func oracle global_addr) m.funcs in
  let p = Prog.program ~entry:m.main funcs in
  Prog.validate p;
  p
