(* Quickstart: write a small kernel against the IR builder, compile it,
   protect it with FERRUM, and execute both versions in the simulator.

     dune exec examples/quickstart.exe *)

module B = Ferrum_ir.Builder
module Ir = Ferrum_ir.Ir
open Ferrum_machine
module Pipeline = Ferrum_eddi.Pipeline
module Technique = Ferrum_eddi.Technique

(* sum of squares 1..n, printed via the builtin print_i64 *)
let build_module () =
  let t = B.create () in
  ignore
    (B.func t "main" ~params:[] ~ret:None (fun fb _ ->
         let acc = B.local_var fb (B.i64 0) in
         B.for_up fb ~from:(B.i64 1) ~to_:(B.i64 101) ~hint:"i" (fun i ->
             B.set fb acc (B.add fb (B.get fb acc) (B.mul fb i i)));
         B.print_i64 fb (B.get fb acc);
         B.ret fb None));
  B.finish t

let () =
  let m = build_module () in
  Fmt.pr "--- mini-IR ---@.%s@." (Ir.to_string m);

  (* compile unprotected and run *)
  let raw = Pipeline.raw m in
  let outcome, st = Predecode.run_fresh (Machine.load raw.program) in
  let cycles = st.Machine.cycles.Machine.fv in
  Fmt.pr "unprotected: %a in %d instructions, %.0f model cycles@."
    Machine.pp_outcome outcome st.Machine.steps cycles;

  (* protect with FERRUM and run again: same output, full duplication *)
  let prot = Pipeline.protect Technique.Ferrum m in
  let outcome', st' = Predecode.run_fresh (Machine.load prot.program) in
  let cycles' = st'.Machine.cycles.Machine.fv in
  Fmt.pr "FERRUM:      %a in %d instructions, %.0f model cycles@."
    Machine.pp_outcome outcome' st'.Machine.steps cycles';
  assert (Machine.equal_outcome outcome outcome');

  let stats = Ferrum_asm.Stats.of_program prot.program in
  Fmt.pr "@.protected program: %a" Ferrum_asm.Stats.pp stats;
  Fmt.pr "runtime overhead under the cycle model: %+.1f%%@."
    (100.0 *. (cycles' -. cycles) /. cycles);
  Fmt.pr "@.first 25 lines of protected assembly:@.";
  let text = Ferrum_asm.Printer.program_to_string prot.program in
  String.split_on_char '\n' text
  |> List.filteri (fun i _ -> i < 25)
  |> List.iter print_endline
