(** FERRUM (paper §III): assembly-level EDDI boosted with SIMD-batched
    checking and compiler-level transformations.

    Per function: spare-register discovery ({!Spare}); instruction
    annotation — 64-bit moves whose source differs from the destination
    are SIMD-ENABLED and duplicate straight into spare XMM lanes, four
    (or, with {!val-zmm_config}, eight) results checked at once through
    YMM/ZMM (paper Fig. 6); everything else with a GPR destination gets
    the Fig. 4 GENERAL scheme with its comparison funnelled through the
    same batch; comparisons get deferred detection via a re-executed
    compare and a set<cc> pair verified on both outgoing paths (Fig. 5);
    and when spares run out, registers are requisitioned around single
    instructions by push/pop (Fig. 7).

    Batches are flushed before anything that could consume a corrupted
    value for control flow or output — compares, jumps, calls, returns —
    and whenever the slots fill up, so every original write is compared
    against its duplicate before the program can act on it. *)

open Ferrum_asm

type config = {
  use_simd : bool;  (** E6 ablation: disable the SIMD path entirely *)
  use_zmm : bool;  (** E10: eight results per batch through ZMM *)
  use_liveness : bool;
      (** under register pressure, clobber registers {!Liveness} proves
          dead instead of push/pop requisition (paper §III-B2) *)
  select : (string -> int -> bool) option;
      (** selective protection (E12, SDCTune-style): protect only the
          original instruction at (block label, index) when the
          predicate holds; [None] protects everything *)
  max_spare_gprs : int option;  (** E7 ablation: simulated pressure *)
  max_spare_simd : int option;
}

val default_config : config

(** {!default_config} with [use_zmm = true]. *)
val zmm_config : config

type stats = {
  mutable simd_batched : int;  (** SIMD-ENABLED instructions protected *)
  mutable flushes : int;
  mutable general_protected : int;
  mutable comparisons_protected : int;
  mutable requisitioned_blocks : int;  (** requisition events *)
  mutable unprotected : int;
      (** instructions left without duplication; non-zero only under
          forced register pressure (RSP writers cannot be
          requisition-wrapped, see DESIGN.md E7) *)
}

val pp_stats : Format.formatter -> stats -> unit

(** Protect a compiled program; the result is re-validated. *)
val protect : ?config:config -> Prog.t -> Prog.t * stats
