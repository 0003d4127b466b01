(** Ablation and extension studies over FERRUM's design choices
    (DESIGN.md E6-E11): SIMD batching disabled, ZMM batching, simulated
    register pressure, the no-overlap cost model, all-sites injection,
    multi-bit upsets, and the backend peephole. *)

type variant = {
  label : string;
  description : string;
  ferrum_config : Ferrum_eddi.Ferrum_pass.config;
  cost_model : Ferrum_machine.Cost.model;
}

type row = {
  variant : variant;
  avg_overhead : float;
  avg_coverage : float option;
}

(** Run every variant over the whole suite (E6/E7/E10 + cost model). *)
val run : ?samples:int -> ?seed:int64 -> unit -> row list

val render : row list -> string

(** E9: the headline numbers with the backend peephole on and off. *)
val optimized_backend : ?samples:int -> ?seed:int64 -> unit -> string

(** E11: FERRUM coverage under 1-3 bit flips per fault. *)
val multibit : ?samples:int -> ?seed:int64 -> unit -> string

(** E8: coverage when protection instructions are injection sites too. *)
val all_sites : ?samples:int -> ?seed:int64 -> unit -> string
