(* Text round-trip: a FERRUM-protected program survives printing to
   AT&T syntax (with provenance comments) and re-parsing, and the
   re-parsed program behaves identically in the simulator.  This is the
   path an external tool would use to inspect or post-process the
   protected assembly.

     dune exec examples/asm_roundtrip.exe *)

open Ferrum_machine
module Pipeline = Ferrum_eddi.Pipeline
module Technique = Ferrum_eddi.Technique
open Ferrum_asm

let () =
  let e =
    match Ferrum_workloads.Catalog.find "Needle" with
    | Some e -> e
    | None -> assert false
  in
  let prot = Pipeline.protect Technique.Ferrum (e.build ()) in
  let text = Printer.program_to_string prot.program in
  Fmt.pr "protected Needle: %d instructions, %d characters of assembly@."
    (Prog.num_instructions prot.program)
    (String.length text);

  let reparsed = Parser.program text in
  Prog.validate reparsed;
  assert (Prog.num_instructions reparsed = Prog.num_instructions prot.program);
  let o1, _ = Predecode.run_fresh (Machine.load prot.program) in
  let o2, _ = Predecode.run_fresh (Machine.load reparsed) in
  assert (Machine.equal_outcome o1 o2);
  Fmt.pr "round-trip outcome unchanged: %a@." Machine.pp_outcome o1;

  (* provenance survives the round trip via the trailing comments *)
  let o, d, c, i = Prog.provenance_counts reparsed in
  Fmt.pr "provenance after reparse: original=%d dup=%d check=%d instr=%d@."
    o d c i;
  let o', d', c', i' = Prog.provenance_counts prot.program in
  assert ((o, d, c, i) = (o', d', c', i'));
  Fmt.pr "sample of the text around the first SIMD flush:@.";
  (* show a window containing a vptest *)
  let lines = String.split_on_char '\n' text in
  let rec find i = function
    | [] -> ()
    | l :: rest ->
      if
        String.length l > 6
        && String.trim l |> fun s ->
           String.length s >= 6 && String.sub s 0 6 = "vptest"
      then
        List.iteri
          (fun k line -> if k >= i - 8 && k <= i + 1 then print_endline line)
          lines
      else find (i + 1) rest
  in
  find 0 lines
