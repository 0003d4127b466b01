(** Parametric cycle-cost model.

    The paper (§IV-B2) measures wall-clock runtime on an Intel Xeon; our
    substrate is a simulator, so runtime is replaced by a per-instruction
    cycle model with two explicitly modelled microarchitectural effects:

    - instructions added by duplication carry no data dependence on the
      original stream, so a superscalar core executes most of them in
      otherwise-idle issue slots (the classic EDDI observation); they
      are charged [dup_overlap] of their base cost — and SIMD-class
      protection instructions, which run on the vector ports that the
      integer-only workloads leave idle (FERRUM's central claim), the
      deeper [simd_overlap];
    - checker branches are never taken in fault-free runs and predict
      perfectly, but still consume fetch/issue bandwidth: flat
      [check_branch].

    Defaults are calibrated against the paper's Fig. 11 and recorded in
    EXPERIMENTS.md; every field is sweepable by the ablation bench. *)

type model = {
  alu : float;
  load : float;
  store : float;
  branch : float;  (** the program's own control flow *)
  check_branch : float;  (** never-taken checker jcc *)
  setcc : float;
  call : float;
  div : float;
  simd_mov : float;  (** movq gpr<->xmm, pinsrq/pextrq register forms *)
  simd_load : float;  (** SIMD ops reading memory *)
  simd_op : float;  (** vinserti128/64x4, vpxor *)
  vptest : float;
  dup_overlap : float;  (** multiplier for scalar protection code *)
  simd_overlap : float;  (** multiplier for SIMD-class protection code *)
}

(** The calibrated default model. *)
val default : model

(** No overlap effects: protection code costs full price.  Used by the
    ablation bench to show how much of FERRUM's advantage comes from the
    ILP assumptions. *)
val no_overlap : model

(** Price of one instruction given its provenance. *)
val cost : model -> Ferrum_asm.Instr.ins -> float
