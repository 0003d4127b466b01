(* AT&T-syntax pretty printer.  The output of [program] is accepted by
   [Parser.program] (round-trip tested by property tests). *)

open Instr

let string_of_mem (m : mem) =
  let base = match m.base with Some r -> "%" ^ Reg.gpr_name r Reg.Q | None -> "" in
  let index =
    match m.index with
    | Some r -> Printf.sprintf ",%%%s,%d" (Reg.gpr_name r Reg.Q) m.scale
    | None -> ""
  in
  if m.base = None && m.index = None then Printf.sprintf "%d" m.disp
  else if m.disp = 0 then Printf.sprintf "(%s%s)" base index
  else Printf.sprintf "%d(%s%s)" m.disp base index

let string_of_operand size = function
  | Imm i -> Printf.sprintf "$%Ld" i
  | Reg r -> "%" ^ Reg.gpr_name r size
  | Mem m -> string_of_mem m

let string_of_alu = function
  | Add -> "add" | Sub -> "sub" | Imul -> "imul"
  | And -> "and" | Or -> "or" | Xor -> "xor"

let string_of_shift = function Shl -> "shl" | Sar -> "sar" | Shr -> "shr"

let string_of_pinsr_src = function
  | Psrc_reg r -> "%" ^ Reg.gpr_name r Reg.Q
  | Psrc_mem m -> string_of_mem m

let string_of_instr (i : t) =
  let sz = Reg.size_suffix in
  let op2 name s a b =
    Printf.sprintf "%s%s %s, %s" name (sz s) (string_of_operand s a)
      (string_of_operand s b)
  in
  match i with
  | Mov (s, a, b) -> op2 "mov" s a b
  | Movslq (a, r) ->
    Printf.sprintf "movslq %s, %%%s" (string_of_operand Reg.D a)
      (Reg.gpr_name r Reg.Q)
  | Movzbq (a, r) ->
    Printf.sprintf "movzbq %s, %%%s" (string_of_operand Reg.B a)
      (Reg.gpr_name r Reg.Q)
  | Lea (m, r) ->
    Printf.sprintf "leaq %s, %%%s" (string_of_mem m) (Reg.gpr_name r Reg.Q)
  | Alu (op, s, a, b) -> op2 (string_of_alu op) s a b
  | Shift (k, s, amt, dst) ->
    let amt_s =
      match amt with Amt_imm n -> Printf.sprintf "$%d" n | Amt_cl -> "%cl"
    in
    Printf.sprintf "%s%s %s, %s" (string_of_shift k) (sz s) amt_s
      (string_of_operand s dst)
  | Neg (s, o) -> Printf.sprintf "neg%s %s" (sz s) (string_of_operand s o)
  | Not (s, o) -> Printf.sprintf "not%s %s" (sz s) (string_of_operand s o)
  | Cmp (s, a, b) -> op2 "cmp" s a b
  | Test (s, a, b) -> op2 "test" s a b
  | Set (c, o) ->
    Printf.sprintf "set%s %s" (Cond.name c) (string_of_operand Reg.B o)
  | Jmp l -> Printf.sprintf "jmp %s" l
  | Jcc (c, l) -> Printf.sprintf "j%s %s" (Cond.name c) l
  | Call f -> Printf.sprintf "call %s" f
  | Ret -> "ret"
  | Push o -> Printf.sprintf "pushq %s" (string_of_operand Reg.Q o)
  | Pop r -> Printf.sprintf "popq %%%s" (Reg.gpr_name r Reg.Q)
  | Cqto -> "cqto"
  | Idiv (s, o) -> Printf.sprintf "idiv%s %s" (sz s) (string_of_operand s o)
  | MovQ_to_xmm (o, x) ->
    Printf.sprintf "movq %s, %%%s" (string_of_operand Reg.Q o) (Reg.xmm_name x)
  | MovQ_from_xmm (x, r) ->
    Printf.sprintf "movq %%%s, %%%s" (Reg.xmm_name x) (Reg.gpr_name r Reg.Q)
  | Pinsrq (lane, src, x) ->
    Printf.sprintf "pinsrq $%d, %s, %%%s" lane (string_of_pinsr_src src)
      (Reg.xmm_name x)
  | Pextrq (lane, x, r) ->
    Printf.sprintf "pextrq $%d, %%%s, %%%s" lane (Reg.xmm_name x)
      (Reg.gpr_name r Reg.Q)
  | Vinserti128 (lane, s, a, d) ->
    Printf.sprintf "vinserti128 $%d, %%%s, %%%s, %%%s" lane (Reg.xmm_name s)
      (Reg.ymm_name a) (Reg.ymm_name d)
  | Vpxor (a, b, d) ->
    Printf.sprintf "vpxor %%%s, %%%s, %%%s" (Reg.ymm_name a) (Reg.ymm_name b)
      (Reg.ymm_name d)
  | Vptest (a, b) ->
    Printf.sprintf "vptest %%%s, %%%s" (Reg.ymm_name a) (Reg.ymm_name b)
  | Vinserti64x4 (lane, s, a, d) ->
    Printf.sprintf "vinserti64x4 $%d, %%%s, %%%s, %%%s" lane (Reg.ymm_name s)
      (Reg.zmm_name a) (Reg.zmm_name d)
  | Vpxorq512 (a, b, d) ->
    Printf.sprintf "vpxorq %%%s, %%%s, %%%s" (Reg.zmm_name a) (Reg.zmm_name b)
      (Reg.zmm_name d)
  | Vptestmq512 (a, b) ->
    Printf.sprintf "vptestmq %%%s, %%%s" (Reg.zmm_name a) (Reg.zmm_name b)

let provenance_comment = function
  | Original -> ""
  | Dup -> "\t# dup"
  | Check -> "\t# check"
  | Instrumentation -> "\t# instr"

let pp_ins ?(comments = true) ppf (i : ins) =
  Fmt.pf ppf "\t%s%s" (string_of_instr i.op)
    (if comments then provenance_comment i.prov else "")

let pp_block ?comments ppf (b : Prog.block) =
  Fmt.pf ppf "%s:@\n" b.label;
  List.iter (fun i -> Fmt.pf ppf "%a@\n" (pp_ins ?comments) i) b.insns

let pp_func ?comments ppf (f : Prog.func) =
  Fmt.pf ppf "\t.globl %s@\n" f.fname;
  List.iter (pp_block ?comments ppf) f.blocks

let pp_program ?comments ppf (t : Prog.t) =
  Fmt.pf ppf "\t.text@\n";
  List.iter (fun f -> Fmt.pf ppf "%a@\n" (pp_func ?comments) f) t.funcs

let program_to_string ?comments t =
  Fmt.str "%a" (pp_program ?comments) t
