(* Tests for the three protection passes: semantics preservation,
   structural properties of the emitted code, spare-register analysis,
   transform statistics, and configuration variants. *)

open Ferrum_asm
module B = Ferrum_ir.Builder
module Ir = Ferrum_ir.Ir
module Machine = Ferrum_machine.Machine
module Predecode = Ferrum_machine.Predecode
module Pipeline = Ferrum_eddi.Pipeline
module Technique = Ferrum_eddi.Technique
module Ferrum_pass = Ferrum_eddi.Ferrum_pass
module Hybrid = Ferrum_eddi.Hybrid
module Ir_eddi = Ferrum_eddi.Ir_eddi
module Spare = Ferrum_eddi.Spare
module Asm_protect = Ferrum_eddi.Asm_protect

let workload name =
  (Option.get (Ferrum_workloads.Catalog.find name)).build ()

let outcome_of p =
  let o, _ = Predecode.run_fresh (Machine.load p) in
  o

(* ---- semantics preservation on every workload x technique ---- *)

let test_semantics_preserved () =
  List.iter
    (fun (e : Ferrum_workloads.Catalog.entry) ->
      let m = e.build () in
      let raw = outcome_of (Pipeline.raw m).program in
      List.iter
        (fun t ->
          let prot = outcome_of (Pipeline.protect t m).program in
          if not (Machine.equal_outcome raw prot) then
            Alcotest.failf "%s under %s: %a vs %a" e.name (Technique.name t)
              Machine.pp_outcome raw Machine.pp_outcome prot)
        Technique.all)
    Ferrum_workloads.Catalog.all

(* ---- spare-register analysis ---- *)

let test_spare_analysis () =
  let m = workload "Pathfinder" in
  let p = (Pipeline.raw m).program in
  List.iter
    (fun (f : Prog.func) ->
      let sp = Spare.analyze_func f in
      (* the backend never touches RBX/R10..R15 *)
      List.iter
        (fun r ->
          Alcotest.(check bool)
            (Reg.gpr_name r Reg.Q ^ " spare")
            true
            (List.mem r sp.Spare.spare_gprs))
        Reg.[ RBX; R10; R11; R12; R13; R14; R15 ];
      Alcotest.(check bool) "rsp never spare" false
        (List.mem Reg.RSP sp.Spare.spare_gprs);
      Alcotest.(check bool) "rbp never spare" false
        (List.mem Reg.RBP sp.Spare.spare_gprs);
      (* no SIMD register is used, so all 16 are spare *)
      Alcotest.(check int) "all xmm spare" 16 (List.length sp.Spare.spare_simd))
    p.funcs

(* ---- Asm_protect unit behaviour ---- *)

let test_protect_movslq_fig4 () =
  (* the paper's Fig. 4 case: movslq %ecx, %rcx overwrites its source *)
  let ins = Instr.original (Instr.Movslq (Instr.Reg Reg.RCX, Reg.RCX)) in
  let seq = Asm_protect.protect ~spares:[ Reg.R10 ] ins in
  match List.map (fun (i : Instr.ins) -> i.op) seq with
  | [ Instr.Movslq (Instr.Reg Reg.RCX, Reg.R10); (* duplicate first *)
      Instr.Movslq (Instr.Reg Reg.RCX, Reg.RCX);
      Instr.Cmp (Reg.Q, Instr.Reg Reg.R10, Instr.Reg Reg.RCX);
      Instr.Jcc (Cond.NE, "exit_function") ] -> ()
  | _ ->
    Alcotest.failf "unexpected sequence:@.%a"
      Fmt.(list (fun ppf (i : Instr.ins) -> Fmt.string ppf (Printer.string_of_instr i.op)))
      seq

let test_protect_accumulator () =
  let ins =
    Instr.original (Instr.Alu (Instr.Add, Reg.Q, Instr.Reg Reg.RCX, Instr.Reg Reg.RAX))
  in
  let seq, owed = Asm_protect.protect_parts ~spares:[ Reg.R10 ] ins in
  Alcotest.(check int) "3 instructions" 3 (List.length seq);
  (match owed with
  | [ { Asm_protect.orig = Reg.RAX; dup = Instr.Reg Reg.R10; width = Reg.Q } ] -> ()
  | _ -> Alcotest.fail "unexpected owed checks");
  (* self-referencing source uses the copy *)
  let ins2 =
    Instr.original (Instr.Alu (Instr.Add, Reg.Q, Instr.Reg Reg.RAX, Instr.Reg Reg.RAX))
  in
  let seq2, _ = Asm_protect.protect_parts ~spares:[ Reg.R10 ] ins2 in
  (match List.map (fun (i : Instr.ins) -> i.op) seq2 with
  | [ Instr.Mov (Reg.Q, Instr.Reg Reg.RAX, Instr.Reg Reg.R10);
      Instr.Alu (Instr.Add, Reg.Q, Instr.Reg Reg.R10, Instr.Reg Reg.R10);
      Instr.Alu (Instr.Add, Reg.Q, Instr.Reg Reg.RAX, Instr.Reg Reg.RAX) ] -> ()
  | _ -> Alcotest.fail "self-add duplicate must read the copy")

let test_protect_rejects_mentioned_spare () =
  let ins = Instr.original (Instr.Mov (Reg.Q, Instr.Reg Reg.R10, Instr.Reg Reg.RAX)) in
  match Asm_protect.protect ~spares:[ Reg.R10 ] ins with
  | _ -> Alcotest.fail "expected Unprotectable"
  | exception Asm_protect.Unprotectable _ -> ()

let test_protect_idiv_needs_four () =
  let ins = Instr.original (Instr.Idiv (Reg.Q, Instr.Reg Reg.RCX)) in
  (match Asm_protect.protect ~spares:[ Reg.R10; Reg.R13 ] ins with
  | _ -> Alcotest.fail "expected Unprotectable"
  | exception Asm_protect.Unprotectable _ -> ());
  let seq =
    Asm_protect.protect ~spares:[ Reg.R10; Reg.R13; Reg.R14; Reg.R15 ] ins
  in
  Alcotest.(check int) "idiv sequence + 2 checks" 12 (List.length seq)

(* ---- semantics of each protected instruction shape ---- *)

(* run a raw body and its FERRUM-protected version as full programs and
   compare final outputs through memory *)
let test_executed_duplicates_are_equivalent () =
  let m = workload "LUD" in
  let raw = (Pipeline.raw m).program in
  let prot, _ = Ferrum_pass.protect raw in
  Alcotest.(check bool) "protected is bigger" true
    (Prog.num_instructions prot > Prog.num_instructions raw);
  Alcotest.(check bool) "same outcome" true
    (Machine.equal_outcome (outcome_of raw) (outcome_of prot))

(* ---- FERRUM structural invariants ---- *)

let ferrum_program ?(config = Ferrum_pass.default_config) name =
  let raw = (Pipeline.raw (workload name)).program in
  fst (Ferrum_pass.protect ~config raw)

let iter_instrs p f =
  List.iter
    (fun (fn : Prog.func) ->
      List.iter (fun (b : Prog.block) -> List.iter (f fn b) b.insns) fn.blocks)
    p.Prog.funcs

let test_ferrum_flag_safety () =
  (* every flag reader's nearest preceding flag writer must be a genuine
     comparison (cmp/test/vptest) in the same block — never an ALU side
     effect, and never missing.  A set<cc> may legitimately read flags
     through other set<cc>/mov instructions, which preserve them. *)
  let p = ferrum_program "kmeans" in
  List.iter
    (fun (fn : Prog.func) ->
      List.iter
        (fun (b : Prog.block) ->
          let arr = Array.of_list b.insns in
          Array.iteri
            (fun i (ins : Instr.ins) ->
              if Instr.reads_flags ins.op then begin
                let rec nearest_writer j =
                  if j < 0 then
                    Alcotest.failf "%s/%s: %s reads flags with no producer"
                      fn.fname b.label
                      (Printer.string_of_instr ins.op)
                  else if Instr.writes_flags arr.(j).op then arr.(j).op
                  else nearest_writer (j - 1)
                in
                match nearest_writer (i - 1) with
                | Instr.Cmp _ | Instr.Test _ | Instr.Vptest _ -> ()
                | other ->
                  Alcotest.failf "%s/%s: %s reads flags of %s" fn.fname
                    b.label
                    (Printer.string_of_instr ins.op)
                    (Printer.string_of_instr other)
              end)
            arr)
        fn.blocks)
    p.funcs

let test_ferrum_checker_targets () =
  (* every checker jcc targets the detector *)
  let p = ferrum_program "BFS" in
  iter_instrs p (fun _ _ (ins : Instr.ins) ->
      match (ins.prov, ins.op) with
      | Instr.Check, Instr.Jcc (c, target) ->
        Alcotest.(check string) "checker target" Prog.exit_function_label target;
        Alcotest.(check bool) "checker condition is NE" true (c = Cond.NE)
      | _ -> ())

let test_ferrum_originals_preserved () =
  (* the original instruction stream survives, in order *)
  let raw = (Pipeline.raw (workload "kNN")).program in
  let prot = ferrum_program "kNN" in
  let originals p =
    List.concat_map
      (fun (f : Prog.func) ->
        List.concat_map
          (fun (b : Prog.block) ->
            List.filter_map
              (fun (i : Instr.ins) ->
                if i.prov = Instr.Original then Some i.op else None)
              b.insns)
          f.blocks)
      p.Prog.funcs
  in
  Alcotest.(check bool) "original stream unchanged" true
    (originals raw = originals prot)

let test_ferrum_simd_only_uses_spares () =
  let p = ferrum_program "Backprop" in
  iter_instrs p (fun _ _ (ins : Instr.ins) ->
      List.iter
        (fun x ->
          if x < 12 then
            Alcotest.failf "instrumentation used non-spare xmm%d" x)
        (Instr.simds_mentioned ins.op))

let test_ferrum_stats () =
  let raw = (Pipeline.raw (workload "Needle")).program in
  let _, stats = Ferrum_pass.protect raw in
  Alcotest.(check bool) "batched some" true (stats.Ferrum_pass.simd_batched > 0);
  Alcotest.(check bool) "flushed some" true (stats.Ferrum_pass.flushes > 0);
  Alcotest.(check bool) "protected generals" true
    (stats.Ferrum_pass.general_protected > 0);
  Alcotest.(check bool) "protected comparisons" true
    (stats.Ferrum_pass.comparisons_protected > 0);
  Alcotest.(check int) "nothing unprotected" 0 stats.Ferrum_pass.unprotected

let test_ferrum_no_simd_config () =
  let config = { Ferrum_pass.default_config with use_simd = false } in
  let p = ferrum_program ~config "Pathfinder" in
  iter_instrs p (fun _ _ (ins : Instr.ins) ->
      if Instr.simds_mentioned ins.op <> [] then
        Alcotest.fail "SIMD instruction emitted with use_simd = false");
  Alcotest.(check bool) "still correct" true
    (Machine.equal_outcome
       (outcome_of (Pipeline.raw (workload "Pathfinder")).program)
       (outcome_of p))

let test_ferrum_register_pressure_configs () =
  List.iter
    (fun cap ->
      let config = { Ferrum_pass.default_config with max_spare_gprs = Some cap } in
      List.iter
        (fun name ->
          let raw = (Pipeline.raw (workload name)).program in
          let p, _ = Ferrum_pass.protect ~config raw in
          if
            not
              (Machine.equal_outcome (outcome_of raw) (outcome_of p))
          then Alcotest.failf "pressure cap %d broke %s" cap name)
        [ "Pathfinder"; "kmeans"; "BFS" ])
    [ 0; 1; 2; 3 ]

let test_ferrum_requisition_used_under_pressure () =
  let config = { Ferrum_pass.default_config with max_spare_gprs = Some 0 } in
  let raw = (Pipeline.raw (workload "Pathfinder")).program in
  let p, stats = Ferrum_pass.protect ~config raw in
  Alcotest.(check bool) "requisition events happened" true
    (stats.Ferrum_pass.requisitioned_blocks > 0);
  (* push/pop instrumentation pairs are balanced *)
  let pushes = ref 0 and pops = ref 0 in
  iter_instrs p (fun _ _ (ins : Instr.ins) ->
      if ins.prov = Instr.Instrumentation then
        match ins.op with
        | Instr.Push _ -> incr pushes
        | Instr.Pop _ -> incr pops
        | _ -> ());
  Alcotest.(check int) "balanced push/pop" !pushes !pops

(* ---- hybrid ---- *)

let test_hybrid_stats_and_structure () =
  let m = workload "kmeans" in
  let p, stats = Hybrid.protect m in
  Alcotest.(check bool) "protected many" true (stats.Hybrid.protected_count > 100);
  Alcotest.(check int) "skipped none" 0 stats.Hybrid.skipped;
  (* hybrid never emits SIMD *)
  iter_instrs p (fun _ _ (ins : Instr.ins) ->
      if Instr.simds_mentioned ins.op <> [] then
        Alcotest.fail "hybrid emitted SIMD")

let test_hybrid_signature_blocks_present () =
  let m = workload "BFS" in
  let m', _ = Hybrid.signature_pass m in
  Ferrum_ir.Verify.run m';
  let has_edge_blocks =
    List.exists
      (fun (f : Ir.func) ->
        List.exists
          (fun (b : Ir.block) ->
            String.length b.label > 4
            &&
            let parts = String.split_on_char '_' b.label in
            List.mem "sig" parts)
          f.blocks)
      m'.Ir.funcs
  in
  Alcotest.(check bool) "edge/check blocks inserted" true has_edge_blocks

(* ---- IR-level EDDI ---- *)

let test_ir_eddi_shadows () =
  let m = workload "LUD" in
  let m', _ = Ir_eddi.protect m in
  Ferrum_ir.Verify.run m';
  Alcotest.(check bool) "IR grew" true
    (Ir.num_instructions m' > Ir.num_instructions m);
  (* provenance tagging flows through the backend *)
  let r = Pipeline.protect Technique.Ir_level_eddi m in
  let _, dups, checks, _ = Prog.provenance_counts r.program in
  Alcotest.(check bool) "dup provenance present" true (dups > 0);
  Alcotest.(check bool) "check provenance present" true (checks > 0)

let test_transform_timing_reported () =
  let m = workload "BFS" in
  List.iter
    (fun t ->
      let r = Pipeline.protect t m in
      Alcotest.(check bool) "non-negative time" true (r.transform_seconds >= 0.0))
    Technique.all

(* ---- Table I ---- *)

let test_table1_matches_paper () =
  let open Technique in
  Alcotest.(check string) "ir basic" "IR" (level_name (coverage Ir_level_eddi Basic));
  Alcotest.(check string) "ir store" "/" (level_name (coverage Ir_level_eddi Store));
  Alcotest.(check string) "hybrid branch" "IR"
    (level_name (coverage Hybrid_assembly_eddi Branch));
  Alcotest.(check string) "hybrid store" "AS1"
    (level_name (coverage Hybrid_assembly_eddi Store));
  List.iter
    (fun c ->
      Alcotest.(check string) "ferrum all AS2" "AS2"
        (level_name (coverage Ferrum c)))
    categories

let () =
  Alcotest.run "protection"
    [
      ( "semantics",
        [ Alcotest.test_case "all workloads x all techniques" `Slow
            test_semantics_preserved;
          Alcotest.test_case "duplicates equivalent" `Quick
            test_executed_duplicates_are_equivalent ] );
      ( "spare",
        [ Alcotest.test_case "function analysis" `Quick test_spare_analysis ] );
      ( "asm_protect",
        [ Alcotest.test_case "Fig. 4 movslq" `Quick test_protect_movslq_fig4;
          Alcotest.test_case "accumulator shapes" `Quick
            test_protect_accumulator;
          Alcotest.test_case "mentioned spare rejected" `Quick
            test_protect_rejects_mentioned_spare;
          Alcotest.test_case "idiv spares" `Quick test_protect_idiv_needs_four
        ] );
      ( "ferrum",
        [ Alcotest.test_case "flag safety" `Quick test_ferrum_flag_safety;
          Alcotest.test_case "checker targets" `Quick
            test_ferrum_checker_targets;
          Alcotest.test_case "originals preserved" `Quick
            test_ferrum_originals_preserved;
          Alcotest.test_case "SIMD register discipline" `Quick
            test_ferrum_simd_only_uses_spares;
          Alcotest.test_case "stats" `Quick test_ferrum_stats;
          Alcotest.test_case "no-SIMD config" `Quick test_ferrum_no_simd_config;
          Alcotest.test_case "register pressure configs" `Slow
            test_ferrum_register_pressure_configs;
          Alcotest.test_case "requisition under pressure" `Quick
            test_ferrum_requisition_used_under_pressure ] );
      ( "hybrid",
        [ Alcotest.test_case "stats + no SIMD" `Quick
            test_hybrid_stats_and_structure;
          Alcotest.test_case "signature blocks" `Quick
            test_hybrid_signature_blocks_present ] );
      ( "ir-eddi",
        [ Alcotest.test_case "shadow structure" `Quick test_ir_eddi_shadows ] );
      ( "pipeline",
        [ Alcotest.test_case "timing" `Quick test_transform_timing_reported;
          Alcotest.test_case "Table I" `Quick test_table1_matches_paper ] );
    ]
