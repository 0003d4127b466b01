(* Backend tests: compiled programs behave exactly like the reference
   interpreter (differential testing on hand-written cases and random
   kernels), and the lowering has the structural properties the
   protection passes rely on. *)

open Ferrum_asm
module B = Ferrum_ir.Builder
module Ir = Ferrum_ir.Ir
module Interp = Ferrum_ir.Interp
module Backend = Ferrum_backend.Backend
module Machine = Ferrum_machine.Machine
module Predecode = Ferrum_machine.Predecode

let compiled_output m =
  let img = Machine.load (Backend.compile m) in
  match Predecode.run_fresh img with
  | Machine.Exit out, _ -> out
  | o, _ -> Alcotest.failf "compiled run failed: %a" Machine.pp_outcome o

let differential name m =
  let expect = (Interp.run m).Interp.output in
  Alcotest.(check (list int64)) name expect (compiled_output m)

let simple_main body =
  let t = B.create () in
  ignore (B.func t "main" ~params:[] ~ret:None (fun fb _ -> body fb; B.ret fb None));
  B.finish t

(* ---- differential unit cases ---- *)

let test_constants_and_alu () =
  differential "alu"
    (simple_main (fun fb ->
         B.print_i64 fb (B.add fb (B.i64 40) (B.i64 2));
         B.print_i64 fb (B.sub fb (B.i64 1) (B.i64 100));
         B.print_i64 fb (B.mul fb (B.i64 (-12)) (B.i64 12));
         B.print_i64 fb (B.xor fb (B.i64 0xFF) (B.i64 0x0F));
         B.print_i64 fb (B.shl fb (B.i64 3) 5);
         B.print_i64 fb (B.binop fb Ir.Or Ir.I64 (B.i64 8) (B.i64 1))))

let test_division_lowering () =
  differential "sdiv/srem"
    (simple_main (fun fb ->
         B.print_i64 fb (B.sdiv fb (B.i64 (-100)) (B.i64 7));
         B.print_i64 fb (B.srem fb (B.i64 (-100)) (B.i64 7));
         B.print_i64 fb (B.sdiv fb (B.i64 100) (B.i64 (-7)))))

let test_variable_shift () =
  differential "shift by cl"
    (simple_main (fun fb ->
         let amt = B.local_var fb (B.i64 3) in
         B.print_i64 fb
           (B.binop fb Ir.Shl Ir.I64 (B.i64 5) (B.get fb amt));
         B.print_i64 fb
           (B.binop fb Ir.Ashr Ir.I64 (B.i64 (-1024)) (B.get fb amt))))

let test_branches () =
  differential "branch both ways"
    (simple_main (fun fb ->
         List.iter
           (fun (a, b) ->
             let c = B.icmp fb Ir.Slt (B.i64 a) (B.i64 b) in
             B.if_ fb ~hint:"t" c
               ~then_:(fun () -> B.print_i64 fb (B.i64 1))
               ~else_:(fun () -> B.print_i64 fb (B.i64 0))
               ())
           [ (1, 2); (2, 1); (-5, 5); (0, 0) ]))

let test_all_predicates () =
  differential "every icmp predicate"
    (simple_main (fun fb ->
         List.iter
           (fun pred ->
             let c =
               B.icmp fb pred (B.i64' (-3L)) (B.i64' 4L)
             in
             B.print_i64 fb (B.cast fb Ir.Zext_i1_i64 c))
           Ir.[ Eq; Ne; Slt; Sle; Sgt; Sge; Ult; Ule; Ugt; Uge ]))

let test_globals_and_gep () =
  let t = B.create () in
  let g = B.global t "data" ~bytes:64 in
  let h = B.global t "data2" ~bytes:32 in
  ignore
    (B.func t "main" ~params:[] ~ret:None (fun fb _ ->
         B.store fb Ir.I64 (B.i64 7) (B.gep fb g (B.i64 3) ~scale:8);
         B.store fb Ir.I64 (B.i64 9) (B.gep fb h (B.i64 1) ~scale:8);
         B.print_i64 fb (B.load fb Ir.I64 (B.gep fb g (B.i64 3) ~scale:8));
         B.print_i64 fb (B.load fb Ir.I64 (B.gep fb h (B.i64 1) ~scale:8));
         (* untouched slots read back zero in both worlds *)
         B.print_i64 fb (B.load fb Ir.I64 (B.gep fb g (B.i64 0) ~scale:8));
         B.ret fb None));
  differential "globals" (B.finish t)

let test_params_and_calls () =
  let t = B.create () in
  ignore
    (B.func t "combine" ~params:[ Ir.I64; Ir.I64; Ir.I64; Ir.I64; Ir.I64; Ir.I64 ]
       ~ret:(Some Ir.I64) (fun fb args ->
         let sum =
           List.fold_left (fun acc a -> B.add fb acc a) (B.i64 0) args
         in
         (* weight the last parameter so ordering mistakes are caught *)
         B.ret fb (Some (B.add fb sum (B.mul fb (List.nth args 5) (B.i64 100))))));
  ignore
    (B.func t "main" ~params:[] ~ret:None (fun fb _ ->
         B.print_i64 fb
           (B.call_v fb "combine"
              [ B.i64 1; B.i64 2; B.i64 3; B.i64 4; B.i64 5; B.i64 6 ]);
         B.ret fb None));
  differential "six-argument call" (B.finish t)

let test_i32_lowering () =
  differential "i32 ops and casts"
    (simple_main (fun fb ->
         let a = B.binop fb Ir.Add Ir.I32 (B.i32 0x7FFFFFFF) (B.i32 2) in
         B.print_i64 fb (B.cast fb Ir.Sext_i32_i64 a);
         let b = B.binop fb Ir.Mul Ir.I32 (B.i32 100000) (B.i32 100000) in
         B.print_i64 fb (B.cast fb Ir.Sext_i32_i64 b)))

let test_i1_through_memory () =
  differential "i1 store/load"
    (simple_main (fun fb ->
         let slot = B.alloca fb ~bytes:1 in
         let c = B.icmp fb Ir.Sgt (B.i64 9) (B.i64 4) in
         B.store fb Ir.I1 c slot;
         let c' = B.load fb Ir.I1 slot in
         B.if_ fb ~hint:"c" c'
           ~then_:(fun () -> B.print_i64 fb (B.i64 77))
           ~else_:(fun () -> B.print_i64 fb (B.i64 88))
           ()))

let prop_random_kernels_differential =
  QCheck.Test.make ~name:"random kernels: interpreter = compiled" ~count:60
    Tgen.kernel_arbitrary
    (fun k ->
      let m = Tgen.build_kernel k in
      Ferrum_ir.Verify.run m;
      let expect = (Interp.run m).Interp.output in
      compiled_output m = expect)

(* ---- structural properties of lowered code ---- *)

let pathfinder () =
  (Option.get (Ferrum_workloads.Catalog.find "Pathfinder")).build ()

let test_lowered_structure () =
  let p = Backend.compile (pathfinder ()) in
  Prog.validate p;
  (* every flag consumer is immediately preceded by its flag producer;
     the protection passes rely on this adjacency *)
  List.iter
    (fun (f : Prog.func) ->
      List.iter
        (fun (b : Prog.block) ->
          let arr = Array.of_list b.insns in
          Array.iteri
            (fun i (ins : Instr.ins) ->
              if Instr.reads_flags ins.op && not (Instr.is_barrier ins.op)
              then begin
                if i = 0 then
                  Alcotest.failf "%s: flag reader at block start" f.fname;
                let prev = arr.(i - 1) in
                if not (Instr.writes_flags prev.op) then
                  Alcotest.failf "%s: flag reader not preceded by producer"
                    f.fname
              end)
            arr)
        f.blocks)
    p.funcs

let test_backend_register_discipline () =
  (* generated code never touches R10-R15 or RBX: they stay spare *)
  let p = Backend.compile (pathfinder ()) in
  List.iter
    (fun (f : Prog.func) ->
      List.iter
        (fun (b : Prog.block) ->
          List.iter
            (fun (ins : Instr.ins) ->
              List.iter
                (fun r ->
                  if List.mem r Reg.[ RBX; R10; R11; R12; R13; R14; R15 ]
                  then
                    Alcotest.failf "backend used reserved-spare %s"
                      (Reg.gpr_name r Reg.Q))
                (Instr.gprs_mentioned ins.op))
            b.insns)
        f.blocks)
    p.funcs

let test_backend_no_simd () =
  let p = Backend.compile (pathfinder ()) in
  List.iter
    (fun (f : Prog.func) ->
      List.iter
        (fun (b : Prog.block) ->
          List.iter
            (fun (ins : Instr.ins) ->
              if Instr.simds_mentioned ins.op <> [] then
                Alcotest.fail "backend emitted SIMD")
            b.insns)
        f.blocks)
    p.funcs

let test_branch_materialisation () =
  (* the paper's Fig. 9 pattern: lowered conditional branches compare the
     stored i1 against zero, creating a flag-fault site *)
  let p = Backend.compile (pathfinder ()) in
  let found = ref false in
  List.iter
    (fun (f : Prog.func) ->
      List.iter
        (fun (b : Prog.block) ->
          let rec scan = function
            | { Instr.op = Instr.Cmp (Reg.B, Instr.Imm 0L, Instr.Mem _); _ }
              :: { Instr.op = Instr.Jcc (Cond.E, _); _ } :: _ ->
              found := true
            | _ :: rest -> scan rest
            | [] -> ()
          in
          scan b.insns)
        f.blocks)
    p.funcs;
  Alcotest.(check bool) "cmpb $0, slot; je present" true !found

let test_too_many_args_rejected () =
  let t = B.create () in
  ignore
    (B.func t "seven"
       ~params:[ Ir.I64; Ir.I64; Ir.I64; Ir.I64; Ir.I64; Ir.I64; Ir.I64 ]
       ~ret:None (fun fb _ -> B.ret fb None));
  ignore
    (B.func t "main" ~params:[] ~ret:None (fun fb _ ->
         ignore
           (B.call fb "seven"
              [ B.i64 1; B.i64 2; B.i64 3; B.i64 4; B.i64 5; B.i64 6; B.i64 7 ]);
         B.ret fb None));
  match Backend.compile (B.finish t) with
  | _ -> Alcotest.fail "expected Backend.Error"
  | exception Backend.Error _ -> ()

let () =
  Alcotest.run "backend"
    [
      ( "differential",
        [ Alcotest.test_case "constants + alu" `Quick test_constants_and_alu;
          Alcotest.test_case "division" `Quick test_division_lowering;
          Alcotest.test_case "variable shift" `Quick test_variable_shift;
          Alcotest.test_case "branches" `Quick test_branches;
          Alcotest.test_case "all predicates" `Quick test_all_predicates;
          Alcotest.test_case "globals + gep" `Quick test_globals_and_gep;
          Alcotest.test_case "calls" `Quick test_params_and_calls;
          Alcotest.test_case "i32" `Quick test_i32_lowering;
          Alcotest.test_case "i1 through memory" `Quick
            test_i1_through_memory;
          QCheck_alcotest.to_alcotest prop_random_kernels_differential ] );
      ( "structure",
        [ Alcotest.test_case "flag adjacency" `Quick test_lowered_structure;
          Alcotest.test_case "spare registers untouched" `Quick
            test_backend_register_discipline;
          Alcotest.test_case "no SIMD in generated code" `Quick
            test_backend_no_simd;
          Alcotest.test_case "Fig. 9 branch materialisation" `Quick
            test_branch_materialisation;
          Alcotest.test_case "arity limit" `Quick test_too_many_args_rejected
        ] );
    ]
