(** Per-opcode cycle profiling: one fresh run of an image with every
    retired instruction's model cycles attributed to its bare mnemonic
    (the hot-instruction table) and to its provenance (the protection
    overhead split into original / duplicate / check / instrumentation
    cycles). *)

open Ferrum_asm
module Machine = Ferrum_machine.Machine

type row = {
  mnemonic : string;
  klass : Instr.klass;
  count : int;
  cycles : float;
}

type prov_row = { prov : Instr.provenance; p_count : int; p_cycles : float }

type t = {
  outcome : Machine.outcome;
  steps : int;
  total_cycles : float;
  rows : row list;  (** cycles descending, then mnemonic *)
  by_provenance : prov_row list;
      (** Original, Dup, Check, Instrumentation order *)
}

val prov_name : Instr.provenance -> string

(** Original, Dup, Check, Instrumentation: the order of
    [by_provenance]. *)
val provenances : Instr.provenance list

(** Position of a provenance in {!provenances}. *)
val prov_index : Instr.provenance -> int

(** Profile one fresh run.  Deterministic for a given image. *)
val run : ?fuel:int -> Machine.image -> t

(** Canonical JSON object: outcome, steps, total cycles, the hot-opcode
    table and the provenance overhead split; byte-stable per image. *)
val to_json : t -> Json.t

(** Hot-instruction table; [~top] truncates (0 = all rows). *)
val pp : ?top:int -> Format.formatter -> t -> unit

(** Provenance (overhead-attribution) table; empty provenances are
    skipped. *)
val pp_provenance : Format.formatter -> t -> unit

(** {1 Predecoded-dispatch statistics}

    Coverage of {!Ferrum_machine.Predecode}'s threaded dispatcher over
    one image: static fused superinstruction sites, the share of a
    golden run's steps the unobserved fast path retires, and a dynamic
    histogram of the superinstruction patterns that actually fire. *)

type dispatch = {
  d_sites : int;  (** static code length *)
  d_fused_sites : int;  (** static fused pair sites *)
  d_steps : int;  (** golden-run dynamic steps *)
  d_fast_steps : int;  (** steps retired by the unobserved fast path *)
  d_fused_steps : int;  (** steps retired inside fused superinstructions *)
  d_patterns : (string * int) list;
      (** dynamic pairs fired per pattern, descending *)
}

(** One unobserved fast-path run (counters) plus one observed replay
    (dynamic pattern histogram).  Deterministic for a given image. *)
val dispatch : ?fuel:int -> Machine.image -> dispatch

val dispatch_to_json : dispatch -> Json.t
val pp_dispatch : Format.formatter -> dispatch -> unit
