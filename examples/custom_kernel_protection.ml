(* Protecting your own kernel: a fixed-point dot product with an
   outlier-rejection loop, run through all three techniques with a
   small seeded campaign each — the complete workflow a user of this
   library would follow for their own code.

     dune exec examples/custom_kernel_protection.exe *)

module B = Ferrum_ir.Builder
module Ir = Ferrum_ir.Ir
open Ferrum_machine
module F = Ferrum_faultsim.Faultsim
module Runner = Ferrum_campaign.Runner
module Pipeline = Ferrum_eddi.Pipeline
module Technique = Ferrum_eddi.Technique

let n = 64

let build_module () =
  let t = B.create () in
  Ferrum_workloads.Wutil.add_lcg t ~seed:0xd07d07L;
  let xs = B.global t "xs" ~bytes:(8 * n) in
  let ys = B.global t "ys" ~bytes:(8 * n) in
  ignore
    (B.func t "dot" ~params:[ Ir.Ptr; Ir.Ptr ] ~ret:(Some Ir.I64)
       (fun fb args ->
         let a = List.nth args 0 and b = List.nth args 1 in
         let acc = B.local_var fb (B.i64 0) in
         B.for_up fb ~from:(B.i64 0) ~to_:(B.i64 n) ~hint:"i" (fun i ->
             let xi = B.load fb Ir.I64 (B.gep fb a i ~scale:8) in
             let yi = B.load fb Ir.I64 (B.gep fb b i ~scale:8) in
             let prod = B.ashr fb (B.mul fb xi yi) 8 in
             (* outlier rejection: skip products above a threshold *)
             let small = B.icmp fb Ir.Slt prod (B.i64 200_000) in
             B.if_ fb ~hint:"keep" small
               ~then_:(fun () ->
                 B.set fb acc (B.add fb (B.get fb acc) prod))
               ());
         B.ret fb (Some (B.get fb acc))));
  ignore
    (B.func t "main" ~params:[] ~ret:None (fun fb _ ->
         ignore (B.call fb "lcg_seed" []);
         B.for_up fb ~from:(B.i64 0) ~to_:(B.i64 n) ~hint:"gen" (fun i ->
             Ferrum_workloads.Wutil.set fb xs i
               (Ferrum_workloads.Wutil.rand_below fb 4096);
             Ferrum_workloads.Wutil.set fb ys i
               (Ferrum_workloads.Wutil.rand_below fb 4096));
         B.print_i64 fb (B.call_v fb "dot" [ xs; ys ]);
         B.ret fb None));
  B.finish t

let () =
  let m = build_module () in
  Ferrum_ir.Verify.run m;
  let raw_img = Machine.load (Pipeline.raw m).program in
  (* a seeded campaign of 250 injections on one forked worker *)
  let counts img =
    (Runner.run ~mode:Runner.Inject ~shards:1 ~seed:3L ~samples:250
       (F.prepare img))
      .Runner.counts
  in
  let raw = counts raw_img in
  Fmt.pr "raw       %a@." F.pp_counts raw;
  List.iter
    (fun t ->
      let r = Pipeline.protect t m in
      let img = Machine.load r.program in
      let golden = Predecode.golden img in
      let c = counts img in
      Fmt.pr "%-9s %a  coverage=%s  overhead=%+.1f%%@."
        (Technique.short_name t) F.pp_counts c
        (Ferrum_report.Ascii.percent (F.sdc_coverage ~raw ~protected_:c))
        (100.0
        *. F.overhead
             ~raw_cycles:(Predecode.golden raw_img).Predecode.cycles
             ~prot_cycles:golden.Predecode.cycles))
    Technique.all
