(** End-to-end drivers: compile a module unprotected or under any of the
    three techniques, with transform timing for the paper's compile-time
    measurement (§IV-B3).

    When a {!Ferrum_telemetry.Trace} recorder is supplied, every stage
    (backend compile, peephole, protection transform, lint) runs inside
    a span carrying counters: instructions, duplicates and checkers
    inserted, spare registers found, stack requisitions.  The spans are
    the recorder's ferrum.trace.v1 rows. *)

type result = {
  technique : Technique.t option;  (** [None] = unprotected baseline *)
  program : Ferrum_asm.Prog.t;
  transform_seconds : float;  (** time spent in the protection transform *)
}

(** Protect with one technique.  The timed section covers the protection
    transform itself: the IR pass for IR-level techniques, the assembly
    pass for FERRUM — matching how the paper reports FERRUM's execution
    time. *)
val protect :
  ?recorder:Ferrum_telemetry.Trace.recorder ->
  ?ferrum_config:Ferrum_pass.config ->
  ?optimize:bool ->
  Technique.t ->
  Ferrum_ir.Ir.modul ->
  result

(** The unprotected configuration. *)
val raw :
  ?recorder:Ferrum_telemetry.Trace.recorder ->
  ?optimize:bool ->
  Ferrum_ir.Ir.modul ->
  result

(** {1 Static verification} *)

exception Lint_failed of string

(** Lint a pipeline result under the shadow-consistency profile its
    technique promises (what `ferrum lint` enforces): [None]/IR-EDDI
    have no assembly-level invariants; hybrid adds Fig. 4 duplication;
    FERRUM adds pair comparisons and SIMD batching.  With
    [assert_clean] (default false), raise {!Lint_failed} when any
    error-severity finding survives — lets callers assert transform
    output is provably well-formed.  Spans carry finding/uncovered
    counters when a recorder is supplied. *)
val lint :
  ?recorder:Ferrum_telemetry.Trace.recorder ->
  ?assert_clean:bool ->
  result ->
  Ferrum_analysis.Lint.report
