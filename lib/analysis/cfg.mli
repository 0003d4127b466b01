(** Control-flow graph over {!Ferrum_asm.Prog} functions.

    {!Ferrum_asm.Prog} blocks are labelled {e extended} blocks: the
    protection transforms emit mid-block conditional exits (checker
    [jne exit_function] branches, deferred pair verifications), so a
    textual block may have several side exits.  This module re-derives
    true basic blocks — leaders are the first instruction of every
    labelled block and every instruction following a control transfer —
    and connects them with fall-through and jump edges.  Analyses
    (the {!Dataflow} engine, {!Liveness}, {!Shadow}) and future passes
    work on this graph rather than re-deriving successor logic. *)

open Ferrum_asm

(** A basic block: a maximal single-entry straight-line run of
    instructions.  [label] and [offset] locate the first instruction
    inside the enclosing {!Prog.block} ([offset] in instructions). *)
type block = {
  id : int;  (** index into {!t.blocks} *)
  label : string;  (** enclosing [Prog.block] label *)
  offset : int;  (** first instruction's index within that block *)
  insns : Instr.ins array;
  succs : int list;  (** successor block ids, fall-through first *)
  preds : int list;
}

type t = {
  func : Prog.func;
  blocks : block array;  (** in layout order; entry is [blocks.(0)] *)
  by_label : (string, int) Hashtbl.t;  (** label -> leader block id *)
}

(** Build the CFG of a function.  Jumps to
    {!Prog.exit_function_label} are detector exits and produce no
    edge. *)
val build : Prog.func -> t

(** Block ids in reverse postorder from the entry (unreachable blocks
    appended at the end in layout order, so every id appears exactly
    once). *)
val reverse_postorder : t -> int array

(** Enclosing source position of instruction [k] of block [id], as
    (Prog-block label, index within that Prog block). *)
val position : t -> int -> int -> string * int
