(** GPR liveness over {!Cfg}, built on the {!Dataflow} engine.

    FERRUM's requisition path ([Ferrum_pass], with [use_liveness])
    queries [dead_at] to clobber provably-dead registers without the
    Fig. 7 push/pop.  Beyond the classic analysis it has the two
    refinements the static lint needs:

    - [?call_reads] overrides the conservative "a call reads every
      register" default.  The lint analyses the {e original} program
      embedded in a protected one, where treating calls as reading only
      the SysV argument/clobber set avoids flagging every spare
      acquisition that precedes a call.
    - [?keep] restricts the transfer function to a subset of
      instructions (others are identity), so liveness of the original
      program can be computed positionally {e inside} a protected
      function: instrumentation occupies indices but neither reads nor
      kills. *)

open Ferrum_asm

module GSet : Set.S with type elt = Reg.gpr

type t

(** Backward liveness to fixpoint over the function's CFG.  Defaults
    are the conservative analysis FERRUM's pass uses: calls read all
    GPRs, every instruction participates. *)
val analyze :
  ?call_reads:Reg.gpr list -> ?keep:(Instr.ins -> bool) -> Prog.func -> t

(** Live-in set immediately before instruction [k] of Prog block
    [label]; [None] for unknown positions. *)
val live_in_at : t -> label:string -> k:int -> GSet.t option

(** Is [r] dead immediately before instruction [k] of block [label]?
    Unknown positions are live (conservative). *)
val dead_at : t -> label:string -> k:int -> Reg.gpr -> bool
