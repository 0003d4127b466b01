(** Generic worklist dataflow engine over {!Cfg}, backward.

    Instantiate {!Make} with a join-semilattice of facts and a
    per-instruction transfer function; the engine iterates blocks in
    postorder until a fixed point, then exposes the fact at every
    instruction boundary.

    {!Ferrum_analysis.Liveness} is its one client, a backward gen/kill
    analysis. *)

open Ferrum_asm

module type DOMAIN = sig
  type fact

  val bottom : fact
  (** Initial fact at every block boundary (and the boundary fact of
      exit blocks). *)

  val equal : fact -> fact -> bool
  val join : fact -> fact -> fact

  val transfer : Instr.ins -> fact -> fact
  (** Fact flowing {e across} one instruction, from after it to before
      it. *)
end

module Make (D : DOMAIN) : sig
  type t

  val solve : Cfg.t -> t
  (** Run to fixpoint. Worst case O(blocks² · insns) but postorder
      ordering makes typical runs a couple of sweeps. *)

  val before : t -> int -> int -> D.fact
  (** [before t block k]: fact immediately before instruction [k] of
      block [block] (execution order). *)
end
