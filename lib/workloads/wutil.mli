(** Shared workload scaffolding: a deterministic in-IR LCG (the kernels'
    input generator — no external data loader) and small array helpers
    over the builder. *)

module B = Ferrum_ir.Builder
module Ir = Ferrum_ir.Ir

(** Add the module-level PRNG: a global state cell plus the functions
    [@lcg_seed] (reset to [seed]) and [@lcg_next] (step; returns a
    non-negative 31-bit value). *)
val add_lcg : B.t -> seed:int64 -> unit

(** Next pseudo-random value in [0, n) (emits a call + srem). *)
val rand_below : B.fb -> int -> Ir.value

(** [get fb a i] loads the i64 element [a.(i)]. *)
val get : B.fb -> Ir.value -> Ir.value -> Ir.value

val set : B.fb -> Ir.value -> Ir.value -> Ir.value -> unit

(** Row-major matrix element access with [cols] columns. *)
val get2 : B.fb -> Ir.value -> cols:int -> Ir.value -> Ir.value -> Ir.value

val set2 :
  B.fb -> Ir.value -> cols:int -> Ir.value -> Ir.value -> Ir.value -> unit

(** Minimum / maximum / absolute value, computed through memory as
    clang -O0 would. *)
val min_ : B.fb -> Ir.value -> Ir.value -> Ir.value

val max_ : B.fb -> Ir.value -> Ir.value -> Ir.value
val abs_ : B.fb -> Ir.value -> Ir.value
