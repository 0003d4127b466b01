(** Cross-validation of the static uncovered-set analysis against a
    dynamic vulnerability-map campaign.

    {!Ferrum_analysis.Lint.uncovered} claims: any SDC whose escape is
    [unchecked-site] (no checker retired after the divergence),
    [output-before-check] (the corrupted output preceded the first
    post-corruption check) or [unprotected-program] (no checkers in
    the image at all) ran a check-free path from its injection site,
    so that site must be statically uncovered.  This module runs a
    seeded traced campaign ([Ferrum_campaign.Runner.run], one shard)
    and checks each escape's injected site, which the vulnerability
    map's escape list carries, against that set. *)

open Ferrum_asm

(** An escape the static analysis failed to predict (a soundness bug if
    ever non-empty). *)
type violation = {
  x_sample : int;  (** campaign sample index *)
  x_static_index : int;  (** injected site *)
  x_escape : string;  (** escape name *)
}

type outcome = {
  c_samples : int;
  c_sdc : int;  (** SDC escapes observed in the campaign *)
  c_checkable : int;
      (** of those, classified unchecked-site or output-before-check *)
  c_confirmed : int;  (** checkable escapes inside the uncovered set *)
  c_violations : violation list;
  c_uncovered : int;  (** size of the static uncovered set *)
  c_eligible : int;  (** eligible sites in the program *)
}

val passed : outcome -> bool

(** Replay a fixed-seed campaign over the program's image and check
    every checkable escape against the static uncovered set. *)
val run : ?seed:int64 -> ?fault_bits:int -> samples:int -> Prog.t -> outcome

val pp : Format.formatter -> outcome -> unit
