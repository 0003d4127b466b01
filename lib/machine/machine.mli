(** Deterministic x86-64 subset simulator.

    Executes flattened {!Ferrum_asm.Prog.t} programs over an
    architectural state — 16 GPRs, 16 SIMD registers of 8 64-bit lanes
    (ZMM width), the ZF/SF/CF/OF flags, and byte-addressable
    little-endian memory with the stack at the top.  Outcomes follow the
    fault-injection literature's classification.  This module loads
    images and owns the state and its helpers; {!Predecode} defines
    instruction behaviour and runs programs. *)

open Ferrum_asm

type outcome =
  | Exit of int64 list  (** normal exit; the observable output, in order *)
  | Detected  (** control reached [exit_function] or [__ferrum_detect] *)
  | Crash of string  (** memory trap, divide error, wild control transfer *)
  | Timeout  (** fuel exhausted *)

(** Equality up to crash messages. *)
val equal_outcome : outcome -> outcome -> bool

val pp_outcome : Format.formatter -> outcome -> unit

(** Pre-resolved control-flow target of an instruction. *)
type link =
  | L_none
  | L_target of int
  | L_call of int
  | L_detect
  | L_print

(** A loaded program: flattened code with resolved branches, per-index
    costs under the chosen model, and per-index injectable
    destinations. *)
type image = {
  code : Instr.ins array;
  links : link array;
  costs : float array;
  dests : Instr.dest list array;
  entry_ip : int;
  halt_ip : int;  (** sentinel return address of the entry function *)
  mem_size : int;
}

exception Trap of string

exception Halt of outcome

(** Flatten, validate and link a program.  Default memory size is 1 MiB;
    the stack starts at its top, global data sits near the bottom
    (from 0x1000, where {!Ferrum_backend.Backend.compile} places it). *)
val load : ?cost_model:Cost.model -> ?mem_size:int -> Prog.t -> image

(** {1 Dirty-page tracking}

    Memory is divided into [page_size]-byte pages; when tracking is
    attached to a state, every {!write_mem}-routed store logs the pages
    it touches.  {!Snapshot} uses the log to capture per-checkpoint
    memory deltas and to undo a run's writes incrementally instead of
    re-blitting the whole image. *)

val page_bits : int

(** [1 lsl page_bits] = 4096. *)
val page_size : int

(** Dirty-page log: a byte-per-page bitmap plus the list of dirty page
    numbers in first-touch order ([tr_pages.(0 .. tr_count-1)]). *)
type track = {
  tr_bits : Bytes.t;
  tr_pages : int array;
  mutable tr_count : int;
}

(** Register files are int64 bigarrays: element access compiles to
    unboxed loads and stores (no per-write allocation, no GC write
    barrier), which is what lets {!Predecode}'s specialized thunks run
    allocation-free.  Index with [r.{i}]. *)
type regfile = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

val copy_regfile : regfile -> regfile

(** [blit_regfile src dst] copies [src] over [dst] (equal dims). *)
val blit_regfile : regfile -> regfile -> unit

(** Plain-array snapshot, for tests and display code. *)
val dump_regfile : regfile -> int64 array

(** An unboxed float cell: an all-float record is stored flat, so
    updating [fv] neither allocates nor takes the write barrier. *)
type fcell = { mutable fv : float }

(** Architectural state.  [simd] is indexed [reg * 8 + lane].  The
    cycle count lives in its own {!fcell}, which every instruction
    updates in place; states never share one ({!fresh_state},
    {!reset_regs} and checkpoints copy the value). *)
type state = {
  gpr : regfile;
  simd : regfile;
  mutable zf : bool;
  mutable sf : bool;
  mutable cf : bool;
  mutable off : bool;
  mem : Bytes.t;
  mutable ip : int;
  cycles : fcell;
  mutable steps : int;
  mutable out_rev : int64 list;
  mutable track : track option;
}

(** Zeroed registers and memory, stack pointer initialised, the halt
    sentinel pushed.  Tracking is off ([track = None]). *)
val fresh_state : image -> state

(** Attach a dirty-page log to [state] (idempotent).  The pre-existing
    memory contents are considered clean. *)
val track_writes : state -> unit

(** Mark every tracked page clean.  No-op without tracking. *)
val clear_dirty : state -> unit

(** Record page [p] as dirty in a log (dedupes via the bitmap). *)
val mark_page : track -> int -> unit

(** Copy registers, flags, ip, cycles, steps and output — everything
    except memory — from [from] into the destination state. *)
val reset_regs : from:state -> state -> unit

(** The output collected so far, oldest first. *)
val output : state -> int64 list

(** {1 Fault-injection mutators}

    Flip one bit of an architectural destination; used by
    {!Ferrum_faultsim} right after the targeted write-back. *)

val flip_gpr : state -> Reg.gpr -> Reg.size -> bit:int -> unit
val flip_simd_lane : state -> Reg.simd -> lane:int -> bit:int -> unit
val flip_flag : state -> Cond.flag -> unit

(** {1 Execution} *)

(** Resolve a memory operand's address against the current register
    file (used by the propagation tracer to locate store targets). *)
val effective_address : state -> Instr.mem -> int64

(** {1 Decoder support}

    The state-level building blocks {!Predecode}'s closure compiler
    lowers instructions onto: masking, sign extension, bounds-checked
    memory access with dirty-page logging, flag updates, the stack and
    SIMD lanes.  Its generic bodies call them; its specialized thunks
    inline copies of some (bounds checks, flag predicates), which the
    differential tests against the reference interpreter check. *)

(** Raise {!Trap} with a formatted message. *)
val trap : ('a, unit, string, 'b) format4 -> 'a

val mask_of_size : Reg.size -> int64
val sign_extend : int64 -> Reg.size -> int64
val read_gpr : state -> Reg.gpr -> Reg.size -> int64

(** Bounds-checked loads/stores; stores route through the dirty-page
    log when one is attached. *)
val read_mem : state -> int64 -> Reg.size -> int64

val write_mem : state -> int64 -> Reg.size -> int64 -> unit

(** Mark the page(s) of an [n]-byte write at offset [a] dirty when a
    log is attached (inlined stores call this after their own bounds
    check). *)
val mark_dirty : state -> int -> int -> unit
val set_flags_logic : state -> Reg.size -> int64 -> unit
val set_flags_add : state -> Reg.size -> int64 -> int64 -> int64 -> unit
val set_flags_sub : state -> Reg.size -> int64 -> int64 -> int64 -> unit

(** Stack push/pop with x86 RSP adjustment. *)
val push : state -> int64 -> unit

val pop : state -> int64
val simd_lane : state -> Reg.simd -> int -> int64
val set_simd_lane : state -> Reg.simd -> int -> int64 -> unit

(** Step budget of a run when the caller gives none. *)
val default_fuel : int
