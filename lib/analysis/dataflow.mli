(** Generic worklist dataflow engine over {!Cfg}.

    Instantiate {!Make} with a join-semilattice of facts and a
    per-instruction transfer function; the engine iterates blocks in
    reverse postorder (forward) or postorder (backward) until a fixed
    point, then exposes the fact at every instruction boundary.

    {!Ferrum_analysis.Liveness} is the canonical backward gen/kill
    client; the shadow-consistency scanner uses a forward instance. *)

open Ferrum_asm

type direction = Forward | Backward

module type DOMAIN = sig
  type fact

  val bottom : fact
  (** Initial fact at every block boundary (and the boundary fact of
      entry/exit blocks). *)

  val equal : fact -> fact -> bool
  val join : fact -> fact -> fact

  val transfer : Instr.ins -> fact -> fact
  (** Fact flowing {e across} one instruction: input is the fact
      before the instruction for a forward analysis, after it for a
      backward one. *)
end

module Make (D : DOMAIN) : sig
  type t

  val solve : direction -> Cfg.t -> t
  (** Run to fixpoint. Worst case O(blocks² · insns) but reverse
      postorder ordering makes typical runs a couple of sweeps. *)

  val before : t -> int -> int -> D.fact
  (** [before t block k]: fact immediately before instruction [k] of
      block [block] (execution order, regardless of direction). *)
end
