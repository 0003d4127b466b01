(* Mini LLVM-like IR in the alloca-based (-O0) form the paper's Fig. 2
   uses: virtual registers are single-assignment, all mutable program
   state flows through memory (allocas and globals), and control joins
   need no phi nodes.  This is the representation the IR-level EDDI
   baseline transforms, and the input of the backend compiler. *)

type ty = I1 | I32 | I64 | Ptr

let ty_name = function I1 -> "i1" | I32 -> "i32" | I64 -> "i64" | Ptr -> "ptr"

type value =
  | Vreg of int
  | Const of ty * int64
  | Global of string (* address of a module-level array *)

type binop = Add | Sub | Mul | Sdiv | Srem | And | Or | Xor | Shl | Ashr | Lshr

type pred = Eq | Ne | Slt | Sle | Sgt | Sge | Ult | Ule | Ugt | Uge

type cast = Sext_i32_i64 | Trunc_i64_i32 | Zext_i1_i64

type instr =
  | Alloca of { dst : int; bytes : int }
  | Load of { dst : int; ty : ty; ptr : value }
  | Store of { ty : ty; v : value; ptr : value }
  | Binop of { dst : int; op : binop; ty : ty; a : value; b : value }
  | Icmp of { dst : int; pred : pred; ty : ty; a : value; b : value }
  | Gep of { dst : int; base : value; index : value; scale : int }
    (* dst = base + index * scale; scale in {1,2,4,8} *)
  | Cast of { dst : int; kind : cast; v : value }
  | Call of { dst : int option; callee : string; args : value list }

type terminator =
  | Br of { cond : value; ifso : string; ifnot : string }
  | Jmp of string
  | Ret of value option

type block = { label : string; body : instr list; term : terminator }

type func = {
  name : string;
  params : (int * ty) list; (* vreg bound to each parameter *)
  ret : ty option;
  blocks : block list;
}

type modul = {
  funcs : func list;
  globals : (string * int) list; (* name, size in bytes *)
  main : string;
}

let binop_name = function
  | Add -> "add" | Sub -> "sub" | Mul -> "mul" | Sdiv -> "sdiv"
  | Srem -> "srem" | And -> "and" | Or -> "or" | Xor -> "xor"
  | Shl -> "shl" | Ashr -> "ashr" | Lshr -> "lshr"

let pred_name = function
  | Eq -> "eq" | Ne -> "ne" | Slt -> "slt" | Sle -> "sle" | Sgt -> "sgt"
  | Sge -> "sge" | Ult -> "ult" | Ule -> "ule" | Ugt -> "ugt" | Uge -> "uge"

let cast_name = function
  | Sext_i32_i64 -> "sext"
  | Trunc_i64_i32 -> "trunc"
  | Zext_i1_i64 -> "zext"

(* Destination vreg defined by an instruction, if any. *)
let def = function
  | Alloca { dst; _ } | Load { dst; _ } | Binop { dst; _ } | Icmp { dst; _ }
  | Gep { dst; _ } | Cast { dst; _ } -> Some dst
  | Call { dst; _ } -> dst
  | Store _ -> None

(* Values an instruction reads. *)
let uses = function
  | Alloca _ -> []
  | Load { ptr; _ } -> [ ptr ]
  | Store { v; ptr; _ } -> [ v; ptr ]
  | Binop { a; b; _ } | Icmp { a; b; _ } -> [ a; b ]
  | Gep { base; index; _ } -> [ base; index ]
  | Cast { v; _ } -> [ v ]
  | Call { args; _ } -> args

let uses_of_term = function
  | Br { cond; _ } -> [ cond ]
  | Jmp _ -> []
  | Ret (Some v) -> [ v ]
  | Ret None -> []

let successors = function
  | Br { ifso; ifnot; _ } -> [ ifso; ifnot ]
  | Jmp l -> [ l ]
  | Ret _ -> []

(* Number of static IR instructions (terminators included). *)
let num_instructions (m : modul) =
  List.fold_left
    (fun acc f ->
      List.fold_left (fun acc b -> acc + List.length b.body + 1) acc f.blocks)
    0 m.funcs

let find_func m name = List.find_opt (fun f -> String.equal f.name name) m.funcs

(* ------------------------------------------------------------------ *)
(* Printer (LLVM-flavoured, for inspection and docs).                  *)
(* ------------------------------------------------------------------ *)

let pp_value ppf = function
  | Vreg r -> Fmt.pf ppf "%%%d" r
  | Const (t, v) -> Fmt.pf ppf "%s %Ld" (ty_name t) v
  | Global g -> Fmt.pf ppf "@%s" g

let pp_instr ppf = function
  | Alloca { dst; bytes } -> Fmt.pf ppf "%%%d = alloca %d bytes" dst bytes
  | Load { dst; ty; ptr } ->
    Fmt.pf ppf "%%%d = load %s, %a" dst (ty_name ty) pp_value ptr
  | Store { ty; v; ptr } ->
    Fmt.pf ppf "store %s %a, %a" (ty_name ty) pp_value v pp_value ptr
  | Binop { dst; op; ty; a; b } ->
    Fmt.pf ppf "%%%d = %s %s %a, %a" dst (binop_name op) (ty_name ty)
      pp_value a pp_value b
  | Icmp { dst; pred; ty; a; b } ->
    Fmt.pf ppf "%%%d = icmp %s %s %a, %a" dst (pred_name pred) (ty_name ty)
      pp_value a pp_value b
  | Gep { dst; base; index; scale } ->
    Fmt.pf ppf "%%%d = gep %a, %a x %d" dst pp_value base pp_value index scale
  | Cast { dst; kind; v } ->
    Fmt.pf ppf "%%%d = %s %a" dst (cast_name kind) pp_value v
  | Call { dst; callee; args } -> (
    let pp_args = Fmt.list ~sep:(Fmt.any ", ") pp_value in
    match dst with
    | Some d -> Fmt.pf ppf "%%%d = call @%s(%a)" d callee pp_args args
    | None -> Fmt.pf ppf "call @%s(%a)" callee pp_args args)

let pp_term ppf = function
  | Br { cond; ifso; ifnot } ->
    Fmt.pf ppf "br %a, label %%%s, label %%%s" pp_value cond ifso ifnot
  | Jmp l -> Fmt.pf ppf "br label %%%s" l
  | Ret (Some v) -> Fmt.pf ppf "ret %a" pp_value v
  | Ret None -> Fmt.pf ppf "ret void"

let pp_func ppf f =
  Fmt.pf ppf "define @%s(%a) {@\n" f.name
    Fmt.(list ~sep:(any ", ") (fun ppf (r, t) -> pf ppf "%s %%%d" (ty_name t) r))
    f.params;
  List.iter
    (fun b ->
      Fmt.pf ppf "%s:@\n" b.label;
      List.iter (fun i -> Fmt.pf ppf "  %a@\n" pp_instr i) b.body;
      Fmt.pf ppf "  %a@\n" pp_term b.term)
    f.blocks;
  Fmt.pf ppf "}@\n"

let pp_modul ppf m =
  List.iter (fun (g, n) -> Fmt.pf ppf "@%s = global [%d bytes]@\n" g n)
    m.globals;
  List.iter (pp_func ppf) m.funcs

let to_string m = Fmt.str "%a" pp_modul m
