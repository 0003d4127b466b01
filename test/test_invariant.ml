(* The headline property (paper Fig. 10): programs protected by FERRUM
   or HYBRID-ASSEMBLY-LEVEL-EDDI never produce silent data corruption
   under the fault model — every single-bit destination-register fault
   is masked, detected, or turns into a crash/timeout, but never a wrong
   output.

   We verify it two ways: exhaustively over every eligible dynamic site
   (all 64 bits sampled randomly per site) on small fixed kernels, and
   statistically on random kernels from the generator. *)

module Machine = Ferrum_machine.Machine
module Predecode = Ferrum_machine.Predecode
module F = Ferrum_faultsim.Faultsim
module Rng = Ferrum_faultsim.Rng
module Pipeline = Ferrum_eddi.Pipeline
module Technique = Ferrum_eddi.Technique
module B = Ferrum_ir.Builder
module Ir = Ferrum_ir.Ir

(* Sweep every eligible dynamic site of a protected program once. *)
let sweep_all_sites ?(scope = F.Original_only) ~seed program =
  let t = F.prepare ~scope (Machine.load program) in
  let rng = Rng.create ~seed in
  let sdc = ref [] in
  for dyn_index = 0 to t.F.eligible_steps - 1 do
    let cls, fault = F.inject t (Rng.split rng) ~dyn_index in
    if cls = F.Sdc then sdc := fault :: !sdc
  done;
  (t.F.eligible_steps, !sdc)

let report_sdc name = function
  | [] -> ()
  | faults ->
    Alcotest.failf "%s: %d SDC escapes, first at dyn=%d %s bit=%d" name
      (List.length faults)
      (List.hd (List.rev_map (fun (f : F.fault) -> f.F.dyn_index) faults))
      (List.hd faults).F.dest_desc (List.hd faults).F.bit

(* A compact kernel exercising every protected shape: loads, stores,
   ALU, shifts, comparisons both directions, division, calls, i32. *)
let mixed_kernel () =
  let t = B.create () in
  let g = B.global t "buf" ~bytes:64 in
  ignore
    (B.func t "step" ~params:[ Ir.I64 ] ~ret:(Some Ir.I64) (fun fb args ->
         let x = List.nth args 0 in
         let q = B.sdiv fb x (B.i64 3) in
         let r = B.srem fb x (B.i64 5) in
         B.ret fb (Some (B.add fb (B.mul fb q (B.i64 7)) r))));
  ignore
    (B.func t "main" ~params:[] ~ret:None (fun fb _ ->
         let acc = B.local_var fb (B.i64 1) in
         B.for_up fb ~from:(B.i64 0) ~to_:(B.i64 5) ~hint:"i" (fun i ->
             B.store fb Ir.I64 (B.get fb acc) (B.gep fb g i ~scale:8);
             let v = B.load fb Ir.I64 (B.gep fb g i ~scale:8) in
             let c = B.icmp fb Ir.Sgt v (B.i64 10) in
             B.if_ fb ~hint:"big" c
               ~then_:(fun () -> B.set fb acc (B.ashr fb (B.get fb acc) 1))
               ~else_:(fun () ->
                 B.set fb acc
                   (B.add fb (B.shl fb (B.get fb acc) 2) (B.i64 3)))
               ();
             B.set fb acc (B.call_v fb "step" [ B.get fb acc ]));
         let narrow =
           B.binop fb Ir.Add Ir.I32
             (B.cast fb Ir.Trunc_i64_i32 (B.get fb acc))
             (B.i32 9)
         in
         B.print_i64 fb (B.cast fb Ir.Sext_i32_i64 narrow);
         B.print_i64 fb (B.get fb acc);
         B.ret fb None));
  B.finish t

let exhaustive technique name m seed () =
  let prog = (Pipeline.protect technique m).program in
  let sites, sdc = sweep_all_sites ~seed prog in
  Alcotest.(check bool) "has sites" true (sites > 100);
  report_sdc (name ^ "/" ^ Technique.short_name technique) sdc

(* statistical check over random kernels: [per_kernel] random sites each *)
let prop_no_sdc technique =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "%s: no SDC on random kernels"
         (Technique.name technique))
    ~count:25 Tgen.kernel_arbitrary
    (fun k ->
      let m = Tgen.build_kernel k in
      Ferrum_ir.Verify.run m;
      let prog = (Pipeline.protect technique m).program in
      let t = F.prepare (Machine.load prog) in
      let rng = Rng.create ~seed:31L in
      let ok = ref true in
      for _ = 1 to 60 do
        let dyn_index = Rng.int rng t.F.eligible_steps in
        match fst (F.inject t (Rng.split rng) ~dyn_index) with
        | F.Sdc -> ok := false
        | _ -> ()
      done;
      !ok)

(* protected programs preserve fault-free semantics on random kernels *)
let prop_semantics_preserved technique =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "%s: semantics preserved on random kernels"
         (Technique.name technique))
    ~count:40 Tgen.kernel_arbitrary
    (fun k ->
      let m = Tgen.build_kernel k in
      Ferrum_ir.Verify.run m;
      let raw, _ = Predecode.run_fresh (Machine.load (Pipeline.raw m).program) in
      let prot, _ =
        Predecode.run_fresh (Machine.load (Pipeline.protect technique m).program)
      in
      Machine.equal_outcome raw prot)

(* FERRUM under forced register pressure: everything except direct
   stack-pointer writers stays covered.  RSP-writing instructions
   (prologue [subq $N, %rsp], epilogue [movq %rbp, %rsp]) cannot be
   requisition-wrapped — the wrapping push/pop would strand the save
   slot — so with zero spares they are the one documented gap (see
   DESIGN.md E7); any SDC escape must be an RSP fault. *)
let test_pressure_no_sdc () =
  let config =
    { Ferrum_eddi.Ferrum_pass.default_config with max_spare_gprs = Some 0 }
  in
  let m = mixed_kernel () in
  let prog =
    (Pipeline.protect ~ferrum_config:config Technique.Ferrum m).program
  in
  let _, sdc = sweep_all_sites ~seed:17L prog in
  let non_rsp =
    List.filter (fun (f : F.fault) -> f.F.dest_desc <> "%rsp") sdc
  in
  report_sdc "mixed/ferrum-0spares (non-rsp)" non_rsp

(* IR-level EDDI, by contrast, must leak SDC somewhere on the suite —
   the paper's core observation.  (If this ever fails, the backend has
   stopped generating unprotected glue and the reproduction is broken.) *)
let test_ir_eddi_leaks () =
  let leaks =
    List.exists
      (fun name ->
        let m = (Option.get (Ferrum_workloads.Catalog.find name)).build () in
        let prog = (Pipeline.protect Technique.Ir_level_eddi m).program in
        let t = F.prepare (Machine.load prog) in
        let rng = Rng.create ~seed:23L in
        let sdc = ref 0 in
        for _ = 1 to 300 do
          let dyn_index = Rng.int rng t.F.eligible_steps in
          if fst (F.inject t (Rng.split rng) ~dyn_index) = F.Sdc then incr sdc
        done;
        !sdc > 0)
      [ "LUD"; "Pathfinder"; "kNN" ]
  in
  Alcotest.(check bool) "IR-level EDDI lets some SDC through" true leaks

let () =
  let m = mixed_kernel () in
  Alcotest.run "invariant"
    [
      ( "exhaustive",
        [ Alcotest.test_case "ferrum: every original site" `Slow
            (exhaustive Technique.Ferrum "mixed" m 41L);
          Alcotest.test_case "hybrid: every original site" `Slow
            (exhaustive Technique.Hybrid_assembly_eddi "mixed" m 43L);
          Alcotest.test_case "ferrum under pressure" `Slow
            test_pressure_no_sdc ] );
      ( "random",
        [ QCheck_alcotest.to_alcotest (prop_no_sdc Technique.Ferrum);
          QCheck_alcotest.to_alcotest
            (prop_no_sdc Technique.Hybrid_assembly_eddi);
          QCheck_alcotest.to_alcotest
            (prop_semantics_preserved Technique.Ferrum);
          QCheck_alcotest.to_alcotest
            (prop_semantics_preserved Technique.Hybrid_assembly_eddi);
          QCheck_alcotest.to_alcotest
            (prop_semantics_preserved Technique.Ir_level_eddi) ] );
      ( "contrast",
        [ Alcotest.test_case "IR-level EDDI leaks" `Slow test_ir_eddi_leaks ]
      );
    ]
