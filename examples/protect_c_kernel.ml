(* The full pipeline over C source: compile a C-lite kernel, protect it
   with each technique, and measure coverage and overhead — what a user
   would do to harden their own code.

     dune exec examples/protect_c_kernel.exe [FILE.c] *)

open Ferrum_machine
module F = Ferrum_faultsim.Faultsim
module Runner = Ferrum_campaign.Runner
module Pipeline = Ferrum_eddi.Pipeline
module Technique = Ferrum_eddi.Technique

let default_file = "examples/programs/matmul.c"

let () =
  let file = if Array.length Sys.argv > 1 then Sys.argv.(1) else default_file in
  let file = if Sys.file_exists file then file else Filename.concat ".." file in
  let m = Ferrum_clite.Clite.compile_file file in
  Fmt.pr "compiled %s: %d IR instructions@." file
    (Ferrum_ir.Ir.num_instructions m);
  let raw = Pipeline.raw m in
  let raw_img = Machine.load raw.program in
  let raw_golden = Predecode.golden raw_img in
  Fmt.pr "unprotected: %a (%d dynamic instructions)@." Machine.pp_outcome
    raw_golden.Predecode.outcome raw_golden.Predecode.dyn_instructions;
  (* a seeded campaign of 250 injections on one forked worker *)
  let counts img =
    (Runner.run ~mode:Runner.Inject ~shards:1 ~seed:21L ~samples:250
       (F.prepare img))
      .Runner.counts
  in
  let raw_counts = counts raw_img in
  Fmt.pr "raw faults:  %a@." F.pp_counts raw_counts;
  List.iter
    (fun t ->
      let r = Pipeline.protect t m in
      let img = Machine.load r.program in
      let g = Predecode.golden img in
      assert (Machine.equal_outcome g.outcome raw_golden.Predecode.outcome);
      let c = counts img in
      Fmt.pr "%-9s coverage=%s overhead=%+.1f%% (%d static instrs)@."
        (Technique.short_name t)
        (Ferrum_report.Ascii.percent
           (F.sdc_coverage ~raw:raw_counts ~protected_:c))
        (100.0
        *. F.overhead ~raw_cycles:raw_golden.Predecode.cycles
             ~prot_cycles:g.Predecode.cycles)
        (Ferrum_asm.Prog.num_instructions r.program))
    Technique.all
