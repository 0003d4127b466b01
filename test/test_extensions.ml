(* Tests for the extensions beyond the paper's headline artefact: the
   backend peephole pass (E9), ZMM-batched checking (E10, the paper's
   §III-B5 future work) and multiple-bit upsets (E11, §II-A future
   work). *)

open Ferrum_asm
module Machine = Ferrum_machine.Machine
module Predecode = Ferrum_machine.Predecode
module F = Ferrum_faultsim.Faultsim
module Rng = Ferrum_faultsim.Rng
module Pipeline = Ferrum_eddi.Pipeline
module Technique = Ferrum_eddi.Technique
module Ferrum_pass = Ferrum_eddi.Ferrum_pass
module Peephole = Ferrum_backend.Peephole
module Experiments = Ferrum_report.Experiments

let outcome_of p = fst (Predecode.run_fresh (Machine.load p))

let all_workloads f =
  List.iter
    (fun (e : Ferrum_workloads.Catalog.entry) -> f e.name (e.build ()))
    Ferrum_workloads.Catalog.all

(* ---- peephole ---- *)

let test_peephole_preserves_semantics () =
  all_workloads (fun name m ->
      let plain = outcome_of (Pipeline.raw m).program in
      let opt = outcome_of (Pipeline.raw ~optimize:true m).program in
      if not (Machine.equal_outcome plain opt) then
        Alcotest.failf "%s: peephole changed behaviour" name)

let test_peephole_shrinks () =
  all_workloads (fun name m ->
      let p = (Pipeline.raw m).program in
      let p', stats = Peephole.run p in
      if stats.Peephole.dead_reloads + stats.Peephole.forwarded_loads = 0 then
        Alcotest.failf "%s: peephole found nothing" name;
      Alcotest.(check bool) (name ^ " not larger") true
        (Prog.num_instructions p' <= Prog.num_instructions p))

let test_peephole_patterns () =
  let slot = Instr.mem ~base:Reg.RBP (-16) in
  let mk ops = Prog.block "b" (List.map Instr.original ops) in
  (* dead reload *)
  let b =
    mk
      [ Instr.Mov (Reg.Q, Instr.Reg Reg.RAX, Instr.Mem slot);
        Instr.Mov (Reg.Q, Instr.Mem slot, Instr.Reg Reg.RAX); Instr.Ret ]
  in
  let stats = { Peephole.dead_reloads = 0; forwarded_loads = 0 } in
  let b' = Peephole.optimize_block stats b in
  Alcotest.(check int) "dead reload removed" 2 (List.length b'.Prog.insns);
  Alcotest.(check int) "counted" 1 stats.Peephole.dead_reloads;
  (* forwarding *)
  let b2 =
    mk
      [ Instr.Mov (Reg.Q, Instr.Reg Reg.RAX, Instr.Mem slot);
        Instr.Mov (Reg.Q, Instr.Mem slot, Instr.Reg Reg.RCX); Instr.Ret ]
  in
  let stats2 = { Peephole.dead_reloads = 0; forwarded_loads = 0 } in
  let b2' = Peephole.optimize_block stats2 b2 in
  Alcotest.(check int) "forwarded" 1 stats2.Peephole.forwarded_loads;
  (match (List.nth b2'.Prog.insns 1).Instr.op with
  | Instr.Mov (Reg.Q, Instr.Reg Reg.RAX, Instr.Reg Reg.RCX) -> ()
  | _ -> Alcotest.fail "expected register move");
  (* different slots must not be touched *)
  let other = Instr.mem ~base:Reg.RBP (-24) in
  let b3 =
    mk
      [ Instr.Mov (Reg.Q, Instr.Reg Reg.RAX, Instr.Mem slot);
        Instr.Mov (Reg.Q, Instr.Mem other, Instr.Reg Reg.RCX); Instr.Ret ]
  in
  let stats3 = { Peephole.dead_reloads = 0; forwarded_loads = 0 } in
  let b3' = Peephole.optimize_block stats3 b3 in
  Alcotest.(check int) "untouched" 3 (List.length b3'.Prog.insns)

let test_peephole_protected_pipelines () =
  let m = (Option.get (Ferrum_workloads.Catalog.find "LUD")).build () in
  let expect = outcome_of (Pipeline.raw m).program in
  List.iter
    (fun t ->
      let p = (Pipeline.protect ~optimize:true t m).program in
      if not (Machine.equal_outcome expect (outcome_of p)) then
        Alcotest.failf "optimized %s broke semantics" (Technique.name t))
    Technique.all

let test_peephole_keeps_ferrum_coverage () =
  let m = (Option.get (Ferrum_workloads.Catalog.find "Pathfinder")).build () in
  let p = (Pipeline.protect ~optimize:true Technique.Ferrum m).program in
  let t = F.prepare (Machine.load p) in
  let rng = Rng.create ~seed:61L in
  for _ = 1 to 120 do
    let dyn_index = Rng.int rng t.F.eligible_steps in
    match fst (F.inject t (Rng.split rng) ~dyn_index) with
    | F.Sdc -> Alcotest.fail "SDC escaped optimized FERRUM"
    | _ -> ()
  done

(* ---- zmm ---- *)

let test_zmm_semantics_machine () =
  (* vinserti64x4 composes two YMM halves; vpxorq/vptestmq compare 512b *)
  let originals = List.map Instr.original in
  let body =
    [ Instr.Mov (Reg.Q, Instr.Imm 1L, Instr.Reg Reg.RAX);
      Instr.MovQ_to_xmm (Instr.Reg Reg.RAX, 0);
      Instr.Pinsrq (1, Instr.Psrc_reg Reg.RAX, 0);
      Instr.MovQ_to_xmm (Instr.Reg Reg.RAX, 1);
      Instr.Pinsrq (1, Instr.Psrc_reg Reg.RAX, 1);
      Instr.Vinserti128 (1, 1, 0, 0); (* ymm0 = 4 x 1 *)
      Instr.Vinserti64x4 (1, 0, 2, 2); (* zmm2 high = ymm0 *)
      Instr.Vinserti64x4 (0, 0, 2, 2); (* zmm2 low = ymm0 *)
      Instr.Vpxorq512 (2, 2, 3); (* zmm3 = 0 *)
      Instr.Vptestmq512 (3, 3);
      Instr.Set (Cond.E, Instr.Reg Reg.RBX); (* all-zero -> 1 *)
      Instr.Vptestmq512 (2, 2);
      Instr.Set (Cond.NE, Instr.Reg Reg.RCX); (* non-zero -> 1 *)
      Instr.Ret ]
  in
  let p = Prog.program [ Prog.func "main" [ Prog.block "main" (originals body) ] ] in
  let img = Machine.load p in
  let st = Machine.fresh_state img in
  (match Predecode.run img st with
  | Machine.Exit _ -> ()
  | o -> Alcotest.failf "zmm program failed: %a" Machine.pp_outcome o);
  Alcotest.(check int64) "zero test" 1L st.Machine.gpr.{Reg.gpr_index Reg.RBX};
  Alcotest.(check int64) "nonzero test" 1L st.Machine.gpr.{Reg.gpr_index Reg.RCX};
  (* all 8 lanes of zmm2 hold 1 *)
  for lane = 0 to 7 do
    Alcotest.(check int64) "lane" 1L st.Machine.simd.{(2 * 8) + lane}
  done

let test_zmm_semantics_preserved () =
  all_workloads (fun name m ->
      let raw = outcome_of (Pipeline.raw m).program in
      let p =
        (Pipeline.protect ~ferrum_config:Ferrum_pass.zmm_config
           Technique.Ferrum m)
          .program
      in
      if not (Machine.equal_outcome raw (outcome_of p)) then
        Alcotest.failf "%s: zmm FERRUM broke semantics" name;
      (* the zmm batch actually got used *)
      let uses_zmm = ref false in
      List.iter
        (fun (f : Prog.func) ->
          List.iter
            (fun (b : Prog.block) ->
              List.iter
                (fun (i : Instr.ins) ->
                  match i.Instr.op with
                  | Instr.Vptestmq512 _ -> uses_zmm := true
                  | _ -> ())
                b.insns)
            f.blocks)
        p.Prog.funcs;
      Alcotest.(check bool) (name ^ " uses zmm") true !uses_zmm)

let test_zmm_no_sdc () =
  let m = (Option.get (Ferrum_workloads.Catalog.find "kmeans")).build () in
  let p =
    (Pipeline.protect ~ferrum_config:Ferrum_pass.zmm_config Technique.Ferrum m)
      .program
  in
  let t = F.prepare (Machine.load p) in
  let rng = Rng.create ~seed:67L in
  for _ = 1 to 120 do
    let dyn_index = Rng.int rng t.F.eligible_steps in
    match fst (F.inject t (Rng.split rng) ~dyn_index) with
    | F.Sdc -> Alcotest.fail "SDC escaped zmm FERRUM"
    | _ -> ()
  done

let test_zmm_cheaper_than_ymm () =
  let m = (Option.get (Ferrum_workloads.Catalog.find "Needle")).build () in
  let cycles cfg =
    let p = (Pipeline.protect ~ferrum_config:cfg Technique.Ferrum m).program in
    (Predecode.golden (Machine.load p)).Predecode.cycles
  in
  Alcotest.(check bool) "zmm batches are cheaper" true
    (cycles Ferrum_pass.zmm_config < cycles Ferrum_pass.default_config)

let test_zmm_text_roundtrip () =
  List.iter
    (fun i ->
      let line = Printer.string_of_instr i in
      Alcotest.(check bool) line true (Parser.parse_instr line = i))
    [ Instr.Vinserti64x4 (1, 0, 2, 2); Instr.Vpxorq512 (1, 2, 3);
      Instr.Vptestmq512 (4, 4) ]

(* ---- liveness analysis + liveness-directed pressure mode ---- *)

module Liveness = Ferrum_analysis.Liveness

let test_liveness_straightline () =
  (* rax written, read, then dead; rbx live into ret as the value path *)
  let body =
    [ Instr.original (Instr.Mov (Reg.Q, Instr.Imm 1L, Instr.Reg Reg.RBX));
      Instr.original (Instr.Mov (Reg.Q, Instr.Imm 2L, Instr.Reg Reg.RCX));
      Instr.original (Instr.Alu (Instr.Add, Reg.Q, Instr.Reg Reg.RCX, Instr.Reg Reg.RBX));
      Instr.original (Instr.Mov (Reg.Q, Instr.Reg Reg.RBX, Instr.Reg Reg.RAX));
      Instr.original Instr.Ret ]
  in
  let f = Prog.func "main" [ Prog.block "main" body ] in
  let lv = Liveness.analyze f in
  (* before the add, rbx and rcx are live; r10 never is *)
  Alcotest.(check bool) "rbx live" false
    (Liveness.dead_at lv ~label:"main" ~k:2 Reg.RBX);
  Alcotest.(check bool) "rcx live" false
    (Liveness.dead_at lv ~label:"main" ~k:2 Reg.RCX);
  Alcotest.(check bool) "r10 dead" true
    (Liveness.dead_at lv ~label:"main" ~k:2 Reg.R10);
  (* after its last read (position of the final mov), rcx is dead *)
  Alcotest.(check bool) "rcx dead after last use" true
    (Liveness.dead_at lv ~label:"main" ~k:3 Reg.RCX);
  (* rax is written at k=3 and read by ret: dead before, live content after *)
  Alcotest.(check bool) "rax dead before def" true
    (Liveness.dead_at lv ~label:"main" ~k:3 Reg.RAX)

let test_liveness_across_branches () =
  (* a value live on only one path is live at the fork *)
  let open Instr in
  let blocks =
    [ Prog.block "main"
        (List.map original
           [ Mov (Reg.Q, Imm 5L, Reg Reg.RBX);
             Cmp (Reg.Q, Imm 0L, Reg Reg.RBX);
             Jcc (Cond.E, "use_it");
             Jmp "skip" ]);
      Prog.block "skip"
        (List.map original [ Mov (Reg.Q, Imm 0L, Reg Reg.RAX); Ret ]);
      Prog.block "use_it"
        (List.map original [ Mov (Reg.Q, Reg Reg.RBX, Reg Reg.RAX); Ret ]) ]
  in
  let f = Prog.func "main" blocks in
  let lv = Liveness.analyze f in
  Alcotest.(check bool) "rbx live at fork" false
    (Liveness.dead_at lv ~label:"main" ~k:2 Reg.RBX);
  Alcotest.(check bool) "rbx dead on skip path" true
    (Liveness.dead_at lv ~label:"skip" ~k:0 Reg.RBX)

let test_liveness_call_blocks_deadness () =
  let open Instr in
  let blocks =
    [ Prog.block "main"
        (List.map original
           [ Mov (Reg.Q, Imm 5L, Reg Reg.RBX);
             Call "print_i64";
             Mov (Reg.Q, Reg Reg.RBX, Reg Reg.RDI);
             Ret ]) ]
  in
  let lv = Liveness.analyze (Prog.func "main" blocks) in
  (* conservatively, nothing is dead right before a call *)
  Alcotest.(check bool) "nothing dead before call" true
    (not
       (List.exists
          (fun r -> Liveness.dead_at lv ~label:"main" ~k:1 r)
          Ferrum_eddi.Spare.preference))

let lv_pressure_config =
  { Ferrum_pass.default_config with
    max_spare_gprs = Some 0; use_liveness = true }

let test_liveness_pressure_semantics () =
  all_workloads (fun name m ->
      let raw = outcome_of (Pipeline.raw m).program in
      let p =
        (Pipeline.protect ~ferrum_config:lv_pressure_config Technique.Ferrum m)
          .program
      in
      if not (Machine.equal_outcome raw (outcome_of p)) then
        Alcotest.failf "%s: liveness pressure mode broke semantics" name)

let test_liveness_pressure_cheaper () =
  let m = (Option.get (Ferrum_workloads.Catalog.find "kmeans")).build () in
  let cycles cfg =
    let p = (Pipeline.protect ~ferrum_config:cfg Technique.Ferrum m).program in
    (Predecode.golden (Machine.load p)).Predecode.cycles
  in
  let plain = { Ferrum_pass.default_config with max_spare_gprs = Some 0 } in
  Alcotest.(check bool) "liveness reuse beats push/pop" true
    (cycles lv_pressure_config < cycles plain)

let test_liveness_pressure_no_sdc () =
  (* under zero spares, liveness-directed reuse protects even the RSP
     writers that push/pop requisition must skip: full sweep, no SDC *)
  let m = (Option.get (Ferrum_workloads.Catalog.find "LUD")).build () in
  let p =
    (Pipeline.protect ~ferrum_config:lv_pressure_config Technique.Ferrum m)
      .program
  in
  let t = F.prepare (Machine.load p) in
  let rng = Rng.create ~seed:19L in
  for dyn_index = 0 to t.F.eligible_steps - 1 do
    match fst (F.inject t (Rng.split rng) ~dyn_index) with
    | F.Sdc -> Alcotest.failf "SDC at site %d" dyn_index
    | _ -> ()
  done

(* ---- multi-bit faults ---- *)

let test_multibit_flips_distinct_bits () =
  (* flipping k bits of a zero register yields a popcount-k value *)
  let p =
    Prog.program
      [ Prog.func "main"
          [ Prog.block "main"
              [ Instr.original (Instr.Mov (Reg.Q, Instr.Imm 0L, Instr.Reg Reg.RDI));
                Instr.original (Instr.Call "print_i64");
                Instr.original Instr.Ret ] ] ]
  in
  let t = F.prepare (Machine.load p) in
  List.iter
    (fun bits ->
      for seed = 1 to 20 do
        let rng = Rng.create ~seed:(Int64.of_int (seed * 100 + bits)) in
        let cls, _ = F.inject ~fault_bits:bits t rng ~dyn_index:0 in
        (match cls with
        | F.Sdc -> ()
        | c -> Alcotest.failf "expected sdc, got %s" (F.classification_name c))
      done)
    [ 1; 2; 3 ]

let test_multibit_campaign_reproducible () =
  let m = (Option.get (Ferrum_workloads.Catalog.find "kNN")).build () in
  let img = Machine.load (Pipeline.raw m).program in
  let campaign () =
    Experiments.campaign_counts ~seed:9L ~samples:30 ~fault_bits:2 img
  in
  Alcotest.(check bool) "reproducible" true (campaign () = campaign ())

let test_multibit_ferrum_still_covers () =
  let m = (Option.get (Ferrum_workloads.Catalog.find "BFS")).build () in
  let p = (Pipeline.protect Technique.Ferrum m).program in
  let img = Machine.load p in
  List.iter
    (fun bits ->
      let c =
        Experiments.campaign_counts ~seed:71L ~samples:100 ~fault_bits:bits img
      in
      Alcotest.(check int)
        (Printf.sprintf "no sdc at %d bits" bits)
        0 c.F.sdc)
    [ 2; 3 ]

(* configuration combinations must compose: correct fault-free output
   and, when everything is selected, no SDC *)
let test_config_combinations () =
  let combos =
    [ { Ferrum_pass.zmm_config with max_spare_gprs = Some 0;
        use_liveness = true };
      { Ferrum_pass.zmm_config with max_spare_gprs = Some 2 };
      { Ferrum_pass.default_config with use_liveness = true };
      { Ferrum_pass.default_config with use_simd = false;
        use_liveness = true; max_spare_gprs = Some 1 } ]
  in
  List.iter
    (fun name ->
      let m = (Option.get (Ferrum_workloads.Catalog.find name)).build () in
      let raw = outcome_of (Pipeline.raw m).program in
      List.iteri
        (fun k cfg ->
          let img =
            Machine.load
              (Pipeline.protect ~ferrum_config:cfg Technique.Ferrum m).program
          in
          let g = Predecode.golden img in
          if not (Machine.equal_outcome g.Predecode.outcome raw) then
            Alcotest.failf "%s combo %d broke semantics" name k;
          let c = Experiments.campaign_counts ~seed:3L ~samples:60 img in
          if c.F.sdc > 0 then Alcotest.failf "%s combo %d leaked SDC" name k)
        combos)
    [ "LUD"; "BFS" ]

let () =
  Alcotest.run "extensions"
    [
      ( "peephole",
        [ Alcotest.test_case "semantics preserved" `Quick
            test_peephole_preserves_semantics;
          Alcotest.test_case "shrinks all workloads" `Quick
            test_peephole_shrinks;
          Alcotest.test_case "patterns" `Quick test_peephole_patterns;
          Alcotest.test_case "protected pipelines" `Quick
            test_peephole_protected_pipelines;
          Alcotest.test_case "FERRUM coverage kept" `Slow
            test_peephole_keeps_ferrum_coverage ] );
      ( "zmm",
        [ Alcotest.test_case "machine semantics" `Quick
            test_zmm_semantics_machine;
          Alcotest.test_case "all workloads" `Quick
            test_zmm_semantics_preserved;
          Alcotest.test_case "no SDC" `Slow test_zmm_no_sdc;
          Alcotest.test_case "cheaper than ymm" `Quick
            test_zmm_cheaper_than_ymm;
          Alcotest.test_case "text roundtrip" `Quick test_zmm_text_roundtrip
        ] );
      ( "liveness",
        [ Alcotest.test_case "straight line" `Quick test_liveness_straightline;
          Alcotest.test_case "branches" `Quick test_liveness_across_branches;
          Alcotest.test_case "calls block deadness" `Quick
            test_liveness_call_blocks_deadness;
          Alcotest.test_case "pressure semantics" `Quick
            test_liveness_pressure_semantics;
          Alcotest.test_case "cheaper than push/pop" `Quick
            test_liveness_pressure_cheaper;
          Alcotest.test_case "exhaustive no-SDC under pressure" `Slow
            test_liveness_pressure_no_sdc ] );
      ( "combos",
        [ Alcotest.test_case "configuration matrix" `Slow
            test_config_combinations ] );
      ( "multibit",
        [ Alcotest.test_case "distinct bits" `Quick
            test_multibit_flips_distinct_bits;
          Alcotest.test_case "reproducible" `Quick
            test_multibit_campaign_reproducible;
          Alcotest.test_case "FERRUM covers 2-3 bit faults" `Slow
            test_multibit_ferrum_still_covers ] );
    ]
