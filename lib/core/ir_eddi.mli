(** IR-LEVEL-EDDI (paper §II-C, Fig. 2; the first baseline of §IV-A1).

    Classic EDDI in the SWIFT lineage: every duplicable IR instruction
    (load, binop, icmp, gep, cast) gets a shadow computing over shadow
    operands, and originals are compared against shadows at
    synchronisation points — stores (value and address), conditional
    branches (condition), calls (arguments) and returns — with a
    mismatch routed to a per-function detector block.

    Faults landing in instructions the backend introduces later (operand
    reloads, branch-condition materialisation, store/call data movement)
    are invisible to this pass: that is the coverage gap the paper
    measures at assembly level. *)

(** Bookkeeping of which vregs are shadows and which are checker
    comparisons, per function, plus detector/edge block labels; shared
    with {!Hybrid}'s signature pass. *)
type prov_tables = {
  shadows : (string * int, unit) Hashtbl.t;  (** (fname, vreg) *)
  checks : (string * int, unit) Hashtbl.t;
  detect_labels : (string, unit) Hashtbl.t;
}

val fresh_tables : unit -> prov_tables

(** Turn the tables into a backend oracle tagging lowered shadow code as
    [Dup], checker code as [Check]. *)
val oracle_of_tables : prov_tables -> Ferrum_backend.Backend.prov_oracle

(** Apply IR-level EDDI to every function; returns the protected,
    re-verified module and the provenance oracle for lowering. *)
val protect : Ferrum_ir.Ir.modul ->
  Ferrum_ir.Ir.modul * Ferrum_backend.Backend.prov_oracle
