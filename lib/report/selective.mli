(** Selective protection (experiment E12, SDCTune-style).

    Profile SDCs on the unprotected binary, attribute them to the static
    instructions whose write-backs were faulted, and have FERRUM protect
    only the sites covering a budget of the observed SDC mass.
    Evaluation uses an independent seed from profiling. *)

module F = Ferrum_faultsim.Faultsim

(** Flattened static index -> (block label, index within block), in the
    loader's flatten order. *)
val site_table : Ferrum_asm.Prog.t -> (string * int) array

(** Per-static-site SDC counts of a campaign on a prepared target, plus
    the campaign totals. *)
val profile :
  samples:int -> seed:int64 -> F.target -> (int, int) Hashtbl.t * F.counts

(** Smallest site set covering [budget] of the observed SDC mass, as a
    (label, index) set, plus its cardinality. *)
val select_sites :
  Ferrum_asm.Prog.t -> (int, int) Hashtbl.t -> budget:float ->
  (string * int, unit) Hashtbl.t * int

type point = {
  budget : float;  (** 2.0 denotes full (unselective) FERRUM *)
  sites_protected : int;
  overhead : float;
  coverage : float;
}

(** The coverage/overhead curve for one module over budgets
    25/50/75/90/100% and full FERRUM. *)
val run_benchmark :
  ?samples:int -> ?profile_seed:int64 -> ?eval_seed:int64 ->
  Ferrum_ir.Ir.modul -> point list

(** The E12 table over the whole suite. *)
val render : ?samples:int -> unit -> string
