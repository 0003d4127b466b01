(** Mini LLVM-like IR in the alloca-based (-O0) form the paper's Fig. 2
    shows: virtual registers are single-assignment, mutable state flows
    through memory (allocas and globals), and control joins need no phi
    nodes.  This is what IR-LEVEL-EDDI transforms and what the backend
    lowers. *)

type ty = I1 | I32 | I64 | Ptr

val ty_name : ty -> string

type value =
  | Vreg of int  (** a virtual register *)
  | Const of ty * int64
  | Global of string  (** address of a module-level array *)

type binop = Add | Sub | Mul | Sdiv | Srem | And | Or | Xor | Shl | Ashr | Lshr

type pred = Eq | Ne | Slt | Sle | Sgt | Sge | Ult | Ule | Ugt | Uge

type cast = Sext_i32_i64 | Trunc_i64_i32 | Zext_i1_i64

type instr =
  | Alloca of { dst : int; bytes : int }
      (** [dst : Ptr] points at a fixed per-activation frame area *)
  | Load of { dst : int; ty : ty; ptr : value }
  | Store of { ty : ty; v : value; ptr : value }
  | Binop of { dst : int; op : binop; ty : ty; a : value; b : value }
  | Icmp of { dst : int; pred : pred; ty : ty; a : value; b : value }
  | Gep of { dst : int; base : value; index : value; scale : int }
      (** dst = base + index * scale; scale in 1/2/4/8 *)
  | Cast of { dst : int; kind : cast; v : value }
  | Call of { dst : int option; callee : string; args : value list }

type terminator =
  | Br of { cond : value; ifso : string; ifnot : string }
  | Jmp of string
  | Ret of value option

type block = { label : string; body : instr list; term : terminator }

type func = {
  name : string;
  params : (int * ty) list;  (** vreg bound to each parameter *)
  ret : ty option;
  blocks : block list;  (** first block is the entry *)
}

type modul = {
  funcs : func list;
  globals : (string * int) list;  (** name, size in bytes *)
  main : string;
}

(** Destination vreg defined by an instruction, if any. *)
val def : instr -> int option

(** Values an instruction reads. *)
val uses : instr -> value list

val uses_of_term : terminator -> value list

(** Successor block labels of a terminator. *)
val successors : terminator -> string list

(** Static IR instruction count, terminators included. *)
val num_instructions : modul -> int

val find_func : modul -> string -> func option

(** {1 LLVM-flavoured printer} *)

val to_string : modul -> string
