(** Imperative builder for {!Ir} modules.

    Workloads and tests write kernels in a compact style; {!local_var},
    {!for_up}, {!while_} and {!if_} capture the clang -O0 idiom of all
    mutable state living in allocas.  Labels are generated globally
    unique, so flattened assembly needs no mangling downstream. *)

type t

val create : unit -> t

(** Declare a zero-initialised module-level array and return its
    address value.  Raises [Invalid_argument] on duplicate names. *)
val global : t -> string -> bytes:int -> Ir.value

(** Freeze the module (functions and globals in declaration order). *)
val finish : t -> Ir.modul

(** A function under construction. *)
type fb

(** A fresh block label ["<func>_<hint><n>"]. *)
val fresh_label : fb -> string -> string

(** Open a new block; the previous one must have been terminated. *)
val start_block : fb -> string -> unit

(** {1 Value shorthands} *)

val i64 : int -> Ir.value
val i64' : int64 -> Ir.value
val i32 : int -> Ir.value

(** {1 Instructions} *)

val alloca : fb -> bytes:int -> Ir.value
val load : fb -> Ir.ty -> Ir.value -> Ir.value
val store : fb -> Ir.ty -> Ir.value -> Ir.value -> unit
val binop : fb -> Ir.binop -> Ir.ty -> Ir.value -> Ir.value -> Ir.value

val add : fb -> Ir.value -> Ir.value -> Ir.value
val sub : fb -> Ir.value -> Ir.value -> Ir.value
val mul : fb -> Ir.value -> Ir.value -> Ir.value
val sdiv : fb -> Ir.value -> Ir.value -> Ir.value
val srem : fb -> Ir.value -> Ir.value -> Ir.value

(** Arithmetic shift right by a constant. *)
val ashr : fb -> Ir.value -> int -> Ir.value

(** Shift left by a constant. *)
val shl : fb -> Ir.value -> int -> Ir.value

val xor : fb -> Ir.value -> Ir.value -> Ir.value
val and_ : fb -> Ir.value -> Ir.value -> Ir.value

(** 64-bit comparison producing an i1. *)
val icmp : fb -> Ir.pred -> Ir.value -> Ir.value -> Ir.value

val gep : fb -> Ir.value -> Ir.value -> scale:int -> Ir.value
val cast : fb -> Ir.cast -> Ir.value -> Ir.value

(** Direct call; pass [~ret] for a non-void callee. *)
val call : fb -> ?ret:Ir.ty -> string -> Ir.value list -> Ir.value option

(** Call returning i64 (raises if used on a void call path). *)
val call_v : fb -> string -> Ir.value list -> Ir.value

(** Emit the observable output of the program. *)
val print_i64 : fb -> Ir.value -> unit

(** {1 Terminators} *)

val br : fb -> Ir.value -> ifso:string -> ifnot:string -> unit
val jmp : fb -> string -> unit
val ret : fb -> Ir.value option -> unit

(** Jump only when the current block is still open; lets a structured
    branch end with an early [ret]. *)
val jmp_if_open : fb -> string -> unit

(** True while a block is open (no terminator emitted yet). *)
val is_open : fb -> bool

(** {1 Structured control} *)

(** A stack-allocated mutable i64 variable. *)
type var

val local_var : fb -> Ir.value -> var
val get : fb -> var -> Ir.value
val set : fb -> var -> Ir.value -> unit

(** [for_up fb ~from ~to_ ~hint body]: counted loop
    [for (i = from; i < to_; i++) body i], state in memory. *)
val for_up :
  fb -> from:Ir.value -> to_:Ir.value -> hint:string -> (Ir.value -> unit) -> unit

(** While loop; the condition closure is re-evaluated each iteration. *)
val while_ : fb -> hint:string -> (unit -> Ir.value) -> (unit -> unit) -> unit

(** Two-armed conditional continuing in a join block; either arm may end
    with an early [ret]. *)
val if_ :
  fb ->
  hint:string ->
  Ir.value ->
  then_:(unit -> unit) ->
  ?else_:(unit -> unit) ->
  unit ->
  unit

(** Define a function; the body callback receives the builder and the
    parameter values.  An unterminated body is closed with [ret void]. *)
val func :
  t ->
  string ->
  params:Ir.ty list ->
  ret:Ir.ty option ->
  (fb -> Ir.value list -> unit) ->
  Ir.func
