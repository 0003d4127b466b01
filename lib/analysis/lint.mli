(** Static protection verifier: drives the {!Shadow} scanner over a
    protected program, computes the statically {e uncovered} set of
    fault-injection sites via an interprocedural check-free-path
    analysis, and renders both as [ferrum.lint.v1] JSONL rows.

    {2 Uncovered sites}

    An eligible site (an [Original] instruction with at least one
    injectable destination — exactly {!Ferrum_faultsim}'s sampling
    eligibility) is {e uncovered} when some CFG-consistent path from
    just after it reaches an observable output ([call print_i64]), or
    the program's final return, executing no [Check]-provenance
    instruction.  Dynamically, an SDC whose escape is classified
    [unchecked-site] (no check retired after the divergence) or
    [output-before-check] ran exactly such a path, so every one of
    those escapes must land on a statically uncovered site — the
    cross-validation property `ferrum lint --crossval` replays a
    vulnmap campaign to prove. *)

open Ferrum_asm

type profile = Shadow.profile = {
  asm_dup : bool;
  pair_comparisons : bool;
  simd : bool;
}

val profile_unprotected : profile
val profile_ir_eddi : profile
val profile_hybrid : profile
val profile_ferrum : profile

(** An eligible site with a check-free path to an output or the final
    return. *)
type site = {
  u_static_index : int;  (** flattened index, = the machine's *)
  u_func : string;
  u_label : string;
  u_index : int;  (** within the Prog block *)
  u_site : string;  (** printed instruction *)
}

type report = {
  r_findings : Shadow.finding list;
  r_uncovered : site list;  (** ordered by static index *)
  r_eligible : int;  (** eligible Original sites in the program *)
}

(** Uncovered-site analysis alone (no shadow scan); works on any
    program, protected or not. *)
val uncovered : Prog.t -> site list * int

val run : profile -> Prog.t -> report

(** Error- / warning-severity finding counts. *)
val errors : report -> int

val warnings : report -> int

(** {1 JSONL export (schema [ferrum.lint.v1])} *)

val metrics_kind : string

val record_fields : Ferrum_telemetry.Metrics.field list

(** One row per finding (in program order) followed by one
    [kind = "uncovered-site"] row per uncovered site; byte-identical
    across runs on the same program. *)
val rows : Prog.t -> report -> Ferrum_telemetry.Json.t list

(** Human-readable rendering: findings grouped by severity, then the
    uncovered-set summary. *)
val pp_report : Format.formatter -> report -> unit
