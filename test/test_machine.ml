(* Unit and property tests for the simulator: instruction semantics,
   flags, memory, control flow, SIMD, traps, costs and the
   fault-injection mutators.  Every program runs on both the reference
   interpreter and the decoded production loop, which must agree on
   the outcome and the whole final state. *)

open Ferrum_asm
module Machine = Ferrum_machine.Machine
module Predecode = Ferrum_machine.Predecode
module Cost = Ferrum_machine.Cost
module Ref_machine = Ferrum_oracle.Ref_machine

let originals = List.map Instr.original

(* Run [img] on both interpreters; returns the decoded loop's result. *)
let run_both ?fuel img =
  let st_ref = Machine.fresh_state img and st = Machine.fresh_state img in
  let o_ref = Ref_machine.run ?fuel img st_ref in
  let o = Predecode.run ?fuel img st in
  if o <> o_ref then
    Alcotest.failf "outcome: %a (reference) vs %a" Machine.pp_outcome o_ref
      Machine.pp_outcome o;
  (match Ref_machine.diff_state st_ref st with
  | Some d -> Alcotest.failf "final state differs from the reference: %s" d
  | None -> ());
  (o, st)

(* Wrap a straight-line body into main; returns the final state. *)
let run_body ?(mem_size = 1 lsl 16) body =
  let p =
    Prog.program
      [ Prog.func "main" [ Prog.block "main" (originals (body @ [ Instr.Ret ])) ] ]
  in
  run_both (Machine.load ~mem_size p)

let gpr st r = st.Machine.gpr.{Reg.gpr_index r}

let check_i64 = Alcotest.(check int64)

let exit_ok = function
  | Machine.Exit _ -> ()
  | o -> Alcotest.failf "expected exit, got %a" Machine.pp_outcome o

(* ---- moves and width semantics ---- *)

let test_mov_widths () =
  let open Instr in
  let _, st =
    run_body
      [ Mov (Reg.Q, Imm 0x1122334455667788L, Reg Reg.RAX);
        Mov (Reg.Q, Reg Reg.RAX, Reg Reg.RBX);
        Mov (Reg.B, Imm 0xFFL, Reg Reg.RBX);
        Mov (Reg.Q, Reg Reg.RAX, Reg Reg.RCX);
        Mov (Reg.W, Imm 0L, Reg Reg.RCX);
        Mov (Reg.Q, Reg Reg.RAX, Reg Reg.RDX);
        Mov (Reg.D, Imm 0x1L, Reg Reg.RDX) ]
  in
  check_i64 "byte write merges" 0x11223344556677FFL (gpr st Reg.RBX);
  check_i64 "word write merges" 0x1122334455660000L (gpr st Reg.RCX);
  check_i64 "dword write zero-extends" 0x1L (gpr st Reg.RDX)

let test_movslq_movzbq () =
  let open Instr in
  let _, st =
    run_body
      [ Mov (Reg.Q, Imm 0xFFFFFFFFL, Reg Reg.RAX); (* -1 as i32 *)
        Movslq (Reg Reg.RAX, Reg.RBX);
        Mov (Reg.Q, Imm 0x1FFL, Reg Reg.RCX);
        Movzbq (Reg Reg.RCX, Reg.RDX) ]
  in
  check_i64 "movslq sign-extends" (-1L) (gpr st Reg.RBX);
  check_i64 "movzbq zero-extends byte" 0xFFL (gpr st Reg.RDX)

let test_lea () =
  let open Instr in
  let _, st =
    run_body
      [ Mov (Reg.Q, Imm 1000L, Reg Reg.RAX);
        Mov (Reg.Q, Imm 5L, Reg Reg.RCX);
        Lea (Instr.mem ~base:Reg.RAX ~index:Reg.RCX ~scale:8 (-16), Reg.RBX) ]
  in
  check_i64 "lea computes address" 1024L (gpr st Reg.RBX)

(* ---- arithmetic and flags ---- *)

let test_alu_basic () =
  let open Instr in
  let _, st =
    run_body
      [ Mov (Reg.Q, Imm 7L, Reg Reg.RAX);
        Alu (Add, Reg.Q, Imm 3L, Reg Reg.RAX);
        Mov (Reg.Q, Imm 100L, Reg Reg.RBX);
        Alu (Sub, Reg.Q, Imm 42L, Reg Reg.RBX);
        Mov (Reg.Q, Imm (-6L), Reg Reg.RCX);
        Alu (Imul, Reg.Q, Imm 7L, Reg Reg.RCX);
        Mov (Reg.Q, Imm 0xF0L, Reg Reg.RDX);
        Alu (And, Reg.Q, Imm 0x3CL, Reg Reg.RDX);
        Mov (Reg.Q, Imm 1L, Reg Reg.RSI);
        Shift (Shl, Reg.Q, Amt_imm 10, Reg Reg.RSI);
        Mov (Reg.Q, Imm (-1024L), Reg Reg.RDI);
        Shift (Sar, Reg.Q, Amt_imm 3, Reg Reg.RDI);
        Mov (Reg.Q, Imm 16L, Reg Reg.R8);
        Neg (Reg.Q, Reg Reg.R8);
        Mov (Reg.Q, Imm 0L, Reg Reg.R9);
        Not (Reg.Q, Reg Reg.R9) ]
  in
  check_i64 "add" 10L (gpr st Reg.RAX);
  check_i64 "sub" 58L (gpr st Reg.RBX);
  check_i64 "imul" (-42L) (gpr st Reg.RCX);
  check_i64 "and" 0x30L (gpr st Reg.RDX);
  check_i64 "shl" 1024L (gpr st Reg.RSI);
  check_i64 "sar" (-128L) (gpr st Reg.RDI);
  check_i64 "neg" (-16L) (gpr st Reg.R8);
  check_i64 "not" (-1L) (gpr st Reg.R9)

let test_alu_32bit_wrap () =
  let open Instr in
  let _, st =
    run_body
      [ Mov (Reg.D, Imm 0x7FFFFFFFL, Reg Reg.RAX);
        Alu (Add, Reg.D, Imm 1L, Reg Reg.RAX) ]
  in
  (* 32-bit overflow wraps and zero-extends *)
  check_i64 "32-bit wrap" 0x80000000L (gpr st Reg.RAX)

(* setcc after cmp, for each signed/unsigned relation *)
let setcc_value a b c =
  let open Instr in
  let _, st =
    run_body
      [ Mov (Reg.Q, Imm a, Reg Reg.RAX);
        Mov (Reg.Q, Imm b, Reg Reg.RCX);
        Mov (Reg.Q, Imm 0L, Reg Reg.RBX);
        Cmp (Reg.Q, Reg Reg.RCX, Reg Reg.RAX); (* flags of rax - rcx *)
        Set (c, Reg Reg.RBX) ]
  in
  gpr st Reg.RBX

let test_cmp_setcc () =
  let t name a b c expected =
    check_i64 name (if expected then 1L else 0L) (setcc_value a b c)
  in
  t "5 = 5" 5L 5L Cond.E true;
  t "5 != 6" 5L 6L Cond.NE true;
  t "-1 < 1 signed" (-1L) 1L Cond.L true;
  t "-1 > 1 unsigned" (-1L) 1L Cond.A true;
  t "3 <= 3" 3L 3L Cond.LE true;
  t "4 > 3" 4L 3L Cond.G true;
  t "3 >= 4 is false" 3L 4L Cond.GE false;
  t "2 < 3 unsigned" 2L 3L Cond.B true;
  t "min_int < 0 signed" Int64.min_int 0L Cond.L true;
  t "sign set" (-5L) 0L Cond.S true;
  t "sign clear" 5L 0L Cond.NS true

let prop_cmp_matches_int64_compare =
  QCheck.Test.make ~name:"cmp/setcc agrees with Int64.compare" ~count:500
    QCheck.(pair int64 int64)
    (fun (a, b) ->
      let s = Int64.compare a b and u = Int64.unsigned_compare a b in
      setcc_value a b Cond.E = (if s = 0 then 1L else 0L)
      && setcc_value a b Cond.L = (if s < 0 then 1L else 0L)
      && setcc_value a b Cond.G = (if s > 0 then 1L else 0L)
      && setcc_value a b Cond.B = (if u < 0 then 1L else 0L)
      && setcc_value a b Cond.A = (if u > 0 then 1L else 0L))

let prop_alu_matches_int64 =
  QCheck.Test.make ~name:"64-bit ALU agrees with Int64" ~count:500
    QCheck.(triple int64 int64 (QCheck.make Tgen.alu))
    (fun (a, b, op) ->
      let open Instr in
      let _, st =
        run_body
          [ Mov (Reg.Q, Imm a, Reg Reg.RAX);
            Mov (Reg.Q, Imm b, Reg Reg.RCX);
            Alu (op, Reg.Q, Reg Reg.RCX, Reg Reg.RAX) ]
      in
      let expect =
        match op with
        | Add -> Int64.add a b
        | Sub -> Int64.sub a b
        | Imul -> Int64.mul a b
        | And -> Int64.logand a b
        | Or -> Int64.logor a b
        | Xor -> Int64.logxor a b
      in
      Int64.equal (gpr st Reg.RAX) expect)

(* ---- memory ---- *)

let test_memory_rw () =
  let open Instr in
  let addr = 0x2000 in
  let _, st =
    run_body
      [ Mov (Reg.Q, Imm (Int64.of_int addr), Reg Reg.RAX);
        Mov (Reg.Q, Imm 0x0102030405060708L, Reg Reg.RCX);
        Mov (Reg.Q, Reg Reg.RCX, Mem (Instr.mem ~base:Reg.RAX 0));
        Mov (Reg.Q, Mem (Instr.mem ~base:Reg.RAX 0), Reg Reg.RDX);
        Mov (Reg.D, Mem (Instr.mem ~base:Reg.RAX 0), Reg Reg.RSI);
        Mov (Reg.B, Mem (Instr.mem ~base:Reg.RAX 7), Reg Reg.RDI) ]
  in
  check_i64 "q roundtrip" 0x0102030405060708L (gpr st Reg.RDX);
  check_i64 "little-endian dword" 0x05060708L (gpr st Reg.RSI);
  check_i64 "top byte" 0x01L (Int64.logand (gpr st Reg.RDI) 0xFFL)

let test_push_pop () =
  let open Instr in
  let _, st =
    run_body
      [ Mov (Reg.Q, Imm 111L, Reg Reg.RAX);
        Push (Reg Reg.RAX);
        Push (Imm 222L);
        Pop Reg.RBX;
        Pop Reg.RCX ]
  in
  check_i64 "lifo 1" 222L (gpr st Reg.RBX);
  check_i64 "lifo 2" 111L (gpr st Reg.RCX)

(* ---- division ---- *)

let test_division () =
  let open Instr in
  let _, st =
    run_body
      [ Mov (Reg.Q, Imm (-17L), Reg Reg.RAX);
        Cqto;
        Mov (Reg.Q, Imm 5L, Reg Reg.RCX);
        Idiv (Reg.Q, Reg Reg.RCX) ]
  in
  (* x86 idiv truncates toward zero *)
  check_i64 "quotient" (-3L) (gpr st Reg.RAX);
  check_i64 "remainder" (-2L) (gpr st Reg.RDX)

let test_divide_by_zero_crashes () =
  let open Instr in
  let outcome, _ =
    run_body
      [ Mov (Reg.Q, Imm 1L, Reg Reg.RAX); Cqto;
        Mov (Reg.Q, Imm 0L, Reg Reg.RCX); Idiv (Reg.Q, Reg Reg.RCX) ]
  in
  match outcome with
  | Machine.Crash _ -> ()
  | o -> Alcotest.failf "expected crash, got %a" Machine.pp_outcome o

let test_divide_overflow_crashes () =
  let open Instr in
  let outcome, _ =
    run_body
      [ Mov (Reg.Q, Imm 1L, Reg Reg.RAX);
        Mov (Reg.Q, Imm 12345L, Reg Reg.RDX); (* corrupted sign extension *)
        Mov (Reg.Q, Imm 5L, Reg Reg.RCX);
        Idiv (Reg.Q, Reg Reg.RCX) ]
  in
  match outcome with
  | Machine.Crash _ -> ()
  | o -> Alcotest.failf "expected crash, got %a" Machine.pp_outcome o

(* ---- control flow, calls, output ---- *)

let test_branch_and_call () =
  let open Instr in
  let p =
    Prog.program
      [ Prog.func "main"
          [ Prog.block "main"
              (originals
                 [ Mov (Reg.Q, Imm 30L, Reg Reg.RDI);
                   Call "double_it";
                   Mov (Reg.Q, Reg Reg.RAX, Reg Reg.RDI);
                   Call "print_i64";
                   Cmp (Reg.Q, Imm 60L, Reg Reg.RAX);
                   Jcc (Cond.E, "good");
                   Jmp "bad" ]);
            Prog.block "bad"
              (originals [ Mov (Reg.Q, Imm 0L, Reg Reg.RDI); Call "print_i64"; Ret ]);
            Prog.block "good"
              (originals [ Mov (Reg.Q, Imm 1L, Reg Reg.RDI); Call "print_i64"; Ret ]) ];
        Prog.func "double_it"
          [ Prog.block "double_it"
              (originals
                 [ Mov (Reg.Q, Reg Reg.RDI, Reg Reg.RAX);
                   Alu (Add, Reg.Q, Reg Reg.RDI, Reg Reg.RAX); Ret ]) ] ]
  in
  let outcome, _ = run_both (Machine.load p) in
  match outcome with
  | Machine.Exit [ 60L; 1L ] -> ()
  | o -> Alcotest.failf "unexpected %a" Machine.pp_outcome o

let test_detect_label_halts () =
  let open Instr in
  let p =
    Prog.program
      [ Prog.func "main"
          [ Prog.block "main" (originals [ Jmp "exit_function" ]) ] ]
  in
  match run_both (Machine.load p) with
  | Machine.Detected, _ -> ()
  | o, _ -> Alcotest.failf "expected detected, got %a" Machine.pp_outcome o

let test_oob_crashes () =
  let open Instr in
  let outcome, _ =
    run_body
      [ Mov (Reg.Q, Imm 0x7FFFFFFFFFFFL, Reg Reg.RAX);
        Mov (Reg.Q, Mem (Instr.mem ~base:Reg.RAX 0), Reg Reg.RCX) ]
  in
  match outcome with
  | Machine.Crash _ -> ()
  | o -> Alcotest.failf "expected crash, got %a" Machine.pp_outcome o

let test_timeout () =
  let open Instr in
  let p =
    Prog.program
      [ Prog.func "main" [ Prog.block "main" (originals [ Jmp "main" ]) ] ]
  in
  match run_both ~fuel:1000 (Machine.load p) with
  | Machine.Timeout, _ -> ()
  | o, _ -> Alcotest.failf "expected timeout, got %a" Machine.pp_outcome o

(* ---- SIMD ---- *)

let test_simd_batch_semantics () =
  let open Instr in
  (* reproduce the paper Fig. 6 shape with equal values: vptest must set
     ZF (no mismatch) *)
  let body =
    [ Mov (Reg.Q, Imm 0xAAL, Reg Reg.RAX);
      MovQ_to_xmm (Reg Reg.RAX, 0);
      MovQ_to_xmm (Reg Reg.RAX, 1);
      Mov (Reg.Q, Imm 0xBBL, Reg Reg.RCX);
      Pinsrq (1, Psrc_reg Reg.RCX, 0);
      Pinsrq (1, Psrc_reg Reg.RCX, 1);
      Mov (Reg.Q, Imm 0xCCL, Reg Reg.RDX);
      MovQ_to_xmm (Reg Reg.RDX, 2);
      MovQ_to_xmm (Reg Reg.RDX, 3);
      Pinsrq (1, Psrc_reg Reg.RDX, 2);
      Pinsrq (1, Psrc_reg Reg.RDX, 3);
      Vinserti128 (1, 2, 0, 0);
      Vinserti128 (1, 3, 1, 1);
      Vpxor (1, 0, 0);
      Vptest (0, 0);
      Set (Cond.E, Reg Reg.RBX) ]
  in
  let _, st = run_body body in
  check_i64 "all lanes equal -> ZF" 1L (gpr st Reg.RBX);
  (* now corrupt one lane and re-check *)
  let body2 =
    body
    @ [ Mov (Reg.Q, Imm 0xDEADL, Reg Reg.RSI);
        Pinsrq (0, Psrc_reg Reg.RSI, 0);
        MovQ_to_xmm (Reg Reg.RAX, 1);
        Pinsrq (1, Psrc_reg Reg.RCX, 1);
        Vinserti128 (1, 2, 0, 0);
        Vinserti128 (1, 3, 1, 1);
        Vpxor (1, 0, 0);
        Vptest (0, 0);
        Set (Cond.NE, Reg Reg.R8) ]
  in
  let _, st2 = run_body body2 in
  check_i64 "mismatch -> not ZF" 1L (gpr st2 Reg.R8)

let test_movq_xmm_zeroes_high () =
  let open Instr in
  let _, st =
    run_body
      [ Mov (Reg.Q, Imm 5L, Reg Reg.RAX);
        Pinsrq (1, Psrc_reg Reg.RAX, 0); (* set lane 1 *)
        MovQ_to_xmm (Reg Reg.RAX, 0); (* must zero lane 1 *)
        Pextrq (1, 0, Reg.RBX) ]
  in
  check_i64 "movq zeroes bits 64..127" 0L (gpr st Reg.RBX)

let prop_shifts_match_int64 =
  QCheck.Test.make ~name:"64-bit shifts agree with Int64" ~count:300
    QCheck.(pair int64 (int_range 0 63))
    (fun (a, n) ->
      let open Instr in
      let _, st =
        run_body
          [ Mov (Reg.Q, Imm a, Reg Reg.RAX);
            Shift (Shl, Reg.Q, Amt_imm n, Reg Reg.RAX);
            Mov (Reg.Q, Imm a, Reg Reg.RBX);
            Shift (Sar, Reg.Q, Amt_imm n, Reg Reg.RBX);
            Mov (Reg.Q, Imm a, Reg Reg.RCX);
            Shift (Shr, Reg.Q, Amt_imm n, Reg Reg.RCX) ]
      in
      Int64.equal (gpr st Reg.RAX) (Int64.shift_left a n)
      && Int64.equal (gpr st Reg.RBX) (Int64.shift_right a n)
      && Int64.equal (gpr st Reg.RCX) (Int64.shift_right_logical a n))

let prop_sign_extension =
  QCheck.Test.make ~name:"movslq/movzbq agree with the reference" ~count:300
    QCheck.int64 (fun a ->
      let open Instr in
      let _, st =
        run_body
          [ Mov (Reg.Q, Imm a, Reg Reg.RAX);
            Movslq (Reg Reg.RAX, Reg.RBX);
            Movzbq (Reg Reg.RAX, Reg.RCX) ]
      in
      Int64.equal (gpr st Reg.RBX) (Int64.of_int32 (Int64.to_int32 a))
      && Int64.equal (gpr st Reg.RCX) (Int64.logand a 0xFFL))

let prop_division_matches_int64 =
  QCheck.Test.make ~name:"idiv agrees with Int64.div/rem" ~count:300
    QCheck.(pair int64 int64)
    (fun (a, b) ->
      QCheck.assume (not (Int64.equal b 0L));
      QCheck.assume
        (not (Int64.equal a Int64.min_int && Int64.equal b (-1L)));
      let open Instr in
      let _, st =
        run_body
          [ Mov (Reg.Q, Imm a, Reg Reg.RAX); Cqto;
            Mov (Reg.Q, Imm b, Reg Reg.RCX); Idiv (Reg.Q, Reg Reg.RCX) ]
      in
      Int64.equal (gpr st Reg.RAX) (Int64.div a b)
      && Int64.equal (gpr st Reg.RDX) (Int64.rem a b))

(* ---- fault mutators ---- *)

let test_flip_gpr () =
  let img =
    Machine.load
      (Prog.program
         [ Prog.func "main" [ Prog.block "main" (originals [ Instr.Ret ]) ] ])
  in
  let st = Machine.fresh_state img in
  st.Machine.gpr.{Reg.gpr_index Reg.RAX} <- 0L;
  Machine.flip_gpr st Reg.RAX Reg.Q ~bit:17;
  check_i64 "bit 17" (Int64.shift_left 1L 17) (gpr st Reg.RAX);
  Machine.flip_gpr st Reg.RAX Reg.Q ~bit:17;
  check_i64 "flip back" 0L (gpr st Reg.RAX);
  Machine.flip_gpr st Reg.RAX Reg.B ~bit:70;
  Alcotest.(check bool) "byte view wraps bit index" true
    (Int64.unsigned_compare (gpr st Reg.RAX) 0x100L < 0);
  Machine.flip_flag st Cond.ZF;
  Alcotest.(check bool) "zf flipped" true st.Machine.zf;
  Machine.flip_simd_lane st 3 ~lane:2 ~bit:1;
  check_i64 "simd lane" 2L st.Machine.simd.{(3 * 8) + 2}

(* ---- cost model ---- *)

let test_cost_model () =
  let open Instr in
  let m = Cost.default in
  let load = Mov (Reg.Q, Mem (Instr.mem ~base:Reg.RBP (-8)), Reg Reg.RAX) in
  Alcotest.(check bool) "orig load costs full" true
    (Cost.cost m (Instr.original load) = m.Cost.load);
  Alcotest.(check bool) "dup load discounted" true
    (Cost.cost m (Instr.dup load) < m.Cost.load);
  Alcotest.(check bool) "check branch flat" true
    (Cost.cost m (Instr.check (Jcc (Cond.NE, "exit_function")))
    = m.Cost.check_branch);
  Alcotest.(check bool) "simd protection cheaper than scalar" true
    (Cost.cost m (Instr.dup (MovQ_to_xmm (Reg Reg.RAX, 0)))
    < Cost.cost m (Instr.dup (Mov (Reg.Q, Reg Reg.RAX, Reg Reg.RBX))));
  Alcotest.(check bool) "no_overlap charges full" true
    (Cost.cost Cost.no_overlap (Instr.dup load) = Cost.no_overlap.Cost.load)

let test_cycles_accumulate () =
  let open Instr in
  let outcome, st =
    run_body [ Mov (Reg.Q, Imm 1L, Reg Reg.RAX); Alu (Add, Reg.Q, Imm 1L, Reg Reg.RAX) ]
  in
  exit_ok outcome;
  Alcotest.(check int) "steps" 3 st.Machine.steps;
  Alcotest.(check bool) "cycles positive" true
    (st.Machine.cycles.Machine.fv > 0.0)

let () =
  Alcotest.run "machine"
    [
      ( "moves",
        [ Alcotest.test_case "widths" `Quick test_mov_widths;
          Alcotest.test_case "sign/zero extension" `Quick test_movslq_movzbq;
          Alcotest.test_case "lea" `Quick test_lea ] );
      ( "alu",
        [ Alcotest.test_case "basic ops" `Quick test_alu_basic;
          Alcotest.test_case "32-bit wrap" `Quick test_alu_32bit_wrap;
          QCheck_alcotest.to_alcotest prop_alu_matches_int64;
          QCheck_alcotest.to_alcotest prop_shifts_match_int64;
          QCheck_alcotest.to_alcotest prop_sign_extension ] );
      ( "flags",
        [ Alcotest.test_case "cmp/setcc" `Quick test_cmp_setcc;
          QCheck_alcotest.to_alcotest prop_cmp_matches_int64_compare ] );
      ( "memory",
        [ Alcotest.test_case "load/store widths" `Quick test_memory_rw;
          Alcotest.test_case "push/pop" `Quick test_push_pop ] );
      ( "division",
        [ Alcotest.test_case "idiv semantics" `Quick test_division;
          QCheck_alcotest.to_alcotest prop_division_matches_int64;
          Alcotest.test_case "divide by zero traps" `Quick
            test_divide_by_zero_crashes;
          Alcotest.test_case "divide overflow traps" `Quick
            test_divide_overflow_crashes ] );
      ( "control",
        [ Alcotest.test_case "branch and call" `Quick test_branch_and_call;
          Alcotest.test_case "exit_function halts as detected" `Quick
            test_detect_label_halts;
          Alcotest.test_case "out-of-bounds crashes" `Quick test_oob_crashes;
          Alcotest.test_case "timeout" `Quick test_timeout ] );
      ( "simd",
        [ Alcotest.test_case "batch check semantics" `Quick
            test_simd_batch_semantics;
          Alcotest.test_case "movq zeroes high lane" `Quick
            test_movq_xmm_zeroes_high ] );
      ( "faults",
        [ Alcotest.test_case "flip mutators" `Quick test_flip_gpr ] );
      ( "cost",
        [ Alcotest.test_case "model" `Quick test_cost_model;
          Alcotest.test_case "accumulation" `Quick test_cycles_accumulate ] );
    ]
