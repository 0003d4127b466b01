(* End-to-end drivers: compile a module unprotected or under any of the
   three techniques, with transform timing for the paper's compile-time
   measurement (§IV-B3).

   When a {!Ferrum_telemetry.Trace} recorder is supplied, every stage
   (backend compile, peephole, the protection transform, lint) runs
   inside a span carrying counters — instructions before/after,
   duplicates and checkers inserted, spare registers found, stack
   requisitions — recorded as ferrum.trace.v1 rows, so `ferrum profile`
   can attribute both time and code growth to individual stages. *)

open Ferrum_asm
module Trace = Ferrum_telemetry.Trace

type result = {
  technique : Technique.t option; (* None = unprotected baseline *)
  program : Prog.t;
  transform_seconds : float; (* time spent in the protection transform *)
}

(* Run [f] inside a span when a recorder is present. *)
let in_span recorder name f =
  match recorder with Some r -> Trace.span r name f | None -> f ()

let counter recorder name v =
  match recorder with Some r -> Trace.counter r name v | None -> ()

(* Provenance composition of a program, as span counters. *)
let count_program recorder p =
  let s = Stats.of_program p in
  counter recorder "instructions" s.Stats.total;
  if s.Stats.dups > 0 then counter recorder "duplicated" s.Stats.dups;
  if s.Stats.checks > 0 then counter recorder "checkers" s.Stats.checks;
  if s.Stats.instrumentation > 0 then
    counter recorder "instrumentation" s.Stats.instrumentation

(* Total spare GPRs/SIMD registers discoverable across the functions of
   a compiled program (paper §III-B1) — what FERRUM has to work with
   before it must requisition. *)
let count_spares recorder (p : Prog.t) =
  let gprs, simds =
    List.fold_left
      (fun (g, s) f ->
        let sp = Spare.analyze_func f in
        (g + List.length sp.Spare.spare_gprs,
         s + List.length sp.Spare.spare_simd))
      (0, 0) p.Prog.funcs
  in
  counter recorder "spare_gprs" gprs;
  counter recorder "spare_simd" simds

(* Compile, optionally running the backend peephole optimiser
   (experiment E9: how much of the cross-layer story is -O0 glue). *)
let compile_raw ?recorder ?(optimize = false) ?oracle
    (m : Ferrum_ir.Ir.modul) : Prog.t =
  let p =
    in_span recorder "compile" (fun () ->
        let p = Ferrum_backend.Backend.compile ?oracle m in
        count_program recorder p;
        p)
  in
  if optimize then
    in_span recorder "peephole" (fun () ->
        let p', _rewrites = Ferrum_backend.Peephole.run p in
        count_program recorder p';
        p')
  else p

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Protect [m] with [technique].  The timed section covers only the
   protection transform itself (for IR-level techniques, the IR pass;
   for FERRUM, the assembly pass), matching how the paper reports
   FERRUM's execution time. *)
let protect ?recorder ?(ferrum_config = Ferrum_pass.default_config)
    ?(optimize = false) technique (m : Ferrum_ir.Ir.modul) : result =
  let span_name = "protect." ^ Technique.short_name technique in
  match technique with
  | Technique.Ir_level_eddi ->
    let (m', oracle), secs =
      in_span recorder span_name (fun () -> timed (fun () -> Ir_eddi.protect m))
    in
    let program = compile_raw ?recorder ~optimize ~oracle m' in
    { technique = Some technique; program; transform_seconds = secs }
  | Technique.Hybrid_assembly_eddi ->
    let p, secs =
      in_span recorder span_name (fun () ->
          let (p, stats), secs =
            timed (fun () -> Hybrid.protect ~optimize m)
          in
          counter recorder "protected" stats.Hybrid.protected_count;
          counter recorder "skipped" stats.Hybrid.skipped;
          count_program recorder p;
          (p, secs))
    in
    { technique = Some technique; program = p; transform_seconds = secs }
  | Technique.Ferrum ->
    let base = compile_raw ?recorder ~optimize m in
    let p, secs =
      in_span recorder span_name (fun () ->
          count_spares recorder base;
          let (p, stats), secs =
            timed (fun () -> Ferrum_pass.protect ~config:ferrum_config base)
          in
          counter recorder "simd_batched" stats.Ferrum_pass.simd_batched;
          counter recorder "general_protected"
            stats.Ferrum_pass.general_protected;
          counter recorder "comparisons_protected"
            stats.Ferrum_pass.comparisons_protected;
          counter recorder "flushes" stats.Ferrum_pass.flushes;
          counter recorder "requisitions"
            stats.Ferrum_pass.requisitioned_blocks;
          if stats.Ferrum_pass.unprotected > 0 then
            counter recorder "unprotected" stats.Ferrum_pass.unprotected;
          count_program recorder p;
          (p, secs))
    in
    { technique = Some technique; program = p; transform_seconds = secs }

module Lint = Ferrum_analysis.Lint

let lint_profile (t : Technique.t option) : Lint.profile =
  match t with
  | None -> Lint.profile_unprotected
  | Some Technique.Ir_level_eddi -> Lint.profile_ir_eddi
  | Some Technique.Hybrid_assembly_eddi -> Lint.profile_hybrid
  | Some Technique.Ferrum -> Lint.profile_ferrum

exception Lint_failed of string

let lint ?recorder ?(assert_clean = false) (r : result) : Lint.report =
  in_span recorder "lint" (fun () ->
      let report = Lint.run (lint_profile r.technique) r.program in
      counter recorder "findings" (List.length report.Lint.r_findings);
      counter recorder "lint_errors" (Lint.errors report);
      counter recorder "uncovered_sites"
        (List.length report.Lint.r_uncovered);
      if assert_clean && Lint.errors report > 0 then
        raise
          (Lint_failed
             (Fmt.str "%d error-severity lint finding(s) under %s:@.%a"
                (Lint.errors report)
                (match r.technique with
                | Some t -> Technique.short_name t
                | None -> "raw")
                Lint.pp_report report));
      report)

let raw ?recorder ?(optimize = false) (m : Ferrum_ir.Ir.modul) : result =
  { technique = None; program = compile_raw ?recorder ~optimize m;
    transform_seconds = 0.0 }
