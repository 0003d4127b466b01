(* Unit and property tests for the assembly layer: register model,
   condition codes, instruction metadata, printer/parser round-trip and
   program validation. *)

open Ferrum_asm

let check = Alcotest.check
let string_t = Alcotest.string

(* ---- registers ---- *)

let test_gpr_names () =
  check string_t "rax q" "rax" (Reg.gpr_name Reg.RAX Reg.Q);
  check string_t "rax d" "eax" (Reg.gpr_name Reg.RAX Reg.D);
  check string_t "rax w" "ax" (Reg.gpr_name Reg.RAX Reg.W);
  check string_t "rax b" "al" (Reg.gpr_name Reg.RAX Reg.B);
  check string_t "r10 b" "r10b" (Reg.gpr_name Reg.R10 Reg.B);
  check string_t "rsi b" "sil" (Reg.gpr_name Reg.RSI Reg.B);
  check string_t "r15 d" "r15d" (Reg.gpr_name Reg.R15 Reg.D)

let test_gpr_name_roundtrip () =
  List.iter
    (fun r ->
      List.iter
        (fun s ->
          match Reg.gpr_of_name (Reg.gpr_name r s) with
          | Some (r', s') ->
            Alcotest.(check bool) "same reg" true (r = r' && s = s')
          | None -> Alcotest.fail "name did not parse")
        Reg.[ B; W; D; Q ])
    Reg.all_gprs

let test_gpr_index_roundtrip () =
  List.iter
    (fun r ->
      Alcotest.(check bool) "index roundtrip" true
        (Reg.gpr_of_index (Reg.gpr_index r) = r))
    Reg.all_gprs

let test_sizes () =
  Alcotest.(check int) "B" 1 (Reg.size_bytes Reg.B);
  Alcotest.(check int) "W" 2 (Reg.size_bytes Reg.W);
  Alcotest.(check int) "D" 4 (Reg.size_bytes Reg.D);
  Alcotest.(check int) "Q" 8 (Reg.size_bytes Reg.Q);
  Alcotest.(check int) "bits" 64 (Reg.size_bits Reg.Q)

(* ---- condition codes ---- *)

let test_cond_names () =
  List.iter
    (fun c ->
      match Cond.of_name (Cond.name c) with
      | Some c' -> Alcotest.(check bool) "cond name roundtrip" true (c = c')
      | None -> Alcotest.fail "cond name did not parse")
    Cond.all

let test_cond_reads () =
  Alcotest.(check bool) "E reads ZF" true (Cond.reads Cond.E = [ Cond.ZF ]);
  Alcotest.(check int) "LE reads 3 flags" 3 (List.length (Cond.reads Cond.LE))

(* ---- instruction metadata ---- *)

let test_defs () =
  let open Instr in
  Alcotest.(check int) "mov reg: 1 def" 1
    (List.length (defs (Mov (Reg.Q, Imm 1L, Reg Reg.RAX))));
  Alcotest.(check int) "mov to mem: 0 defs" 0
    (List.length (defs (Mov (Reg.Q, Reg Reg.RAX, Mem (mem ~base:Reg.RBP (-8))))));
  Alcotest.(check int) "cmp: flags only" 1
    (List.length (defs (Cmp (Reg.Q, Reg Reg.RAX, Reg Reg.RCX))));
  Alcotest.(check int) "idiv: rax and rdx" 2
    (List.length
       (List.filter
          (function Dgpr _ -> true | _ -> false)
          (defs (Idiv (Reg.Q, Reg Reg.RCX)))));
  Alcotest.(check bool) "jmp: none" true (defs (Jmp "l") = []);
  Alcotest.(check bool) "alu writes flags" true
    (writes_flags (Alu (Add, Reg.Q, Imm 1L, Reg Reg.RAX)));
  Alcotest.(check bool) "mov does not write flags" false
    (writes_flags (Mov (Reg.Q, Imm 1L, Reg Reg.RAX)));
  Alcotest.(check bool) "jcc reads flags" true (reads_flags (Jcc (Cond.E, "l")));
  Alcotest.(check bool) "set reads flags" true
    (reads_flags (Set (Cond.E, Reg Reg.RAX)))

let test_gprs_mentioned () =
  let open Instr in
  let mentions i r = List.mem r (gprs_mentioned i) in
  let i = Mov (Reg.Q, Mem (mem ~base:Reg.RBP ~index:Reg.RCX ~scale:8 4), Reg Reg.RAX) in
  Alcotest.(check bool) "base" true (mentions i Reg.RBP);
  Alcotest.(check bool) "index" true (mentions i Reg.RCX);
  Alcotest.(check bool) "dest" true (mentions i Reg.RAX);
  Alcotest.(check bool) "other" false (mentions i Reg.R10);
  Alcotest.(check bool) "cqto mentions rax+rdx" true
    (mentions Cqto Reg.RAX && mentions Cqto Reg.RDX);
  Alcotest.(check bool) "shift by cl mentions rcx" true
    (mentions (Shift (Shl, Reg.Q, Amt_cl, Reg Reg.RAX)) Reg.RCX)

let test_klass () =
  let open Instr in
  Alcotest.(check string) "load"
    "load" (klass_name (klass (Mov (Reg.Q, Mem (mem 0), Reg Reg.RAX))));
  Alcotest.(check string) "store"
    "store" (klass_name (klass (Mov (Reg.Q, Reg Reg.RAX, Mem (mem 0)))));
  Alcotest.(check string) "alu"
    "alu" (klass_name (klass (Alu (Add, Reg.Q, Imm 1L, Reg Reg.RAX))));
  Alcotest.(check string) "branch" "branch" (klass_name (klass (Jmp "x")));
  Alcotest.(check string) "simd"
    "simd" (klass_name (klass (Vpxor (0, 1, 2))))

(* ---- printer / parser ---- *)

let test_print_examples () =
  let open Instr in
  let p i = Printer.string_of_instr i in
  let check = Alcotest.check in
  check string_t "mov" "movq $42, %rax" (p (Mov (Reg.Q, Imm 42L, Reg Reg.RAX)));
  check string_t "movl" "movl %ecx, %eax" (p (Mov (Reg.D, Reg Reg.RCX, Reg Reg.RAX)));
  check string_t "mem" "movq -8(%rbp), %rax"
    (p (Mov (Reg.Q, Mem (mem ~base:Reg.RBP (-8)), Reg Reg.RAX)));
  check string_t "sib" "leaq (%rax,%rcx,8), %rdx"
    (p (Lea (mem ~base:Reg.RAX ~index:Reg.RCX ~scale:8 0, Reg.RDX)));
  check string_t "jne" "jne exit_function" (p (Jcc (Cond.NE, "exit_function")));
  check string_t "sete" "sete %r11b" (p (Set (Cond.E, Reg Reg.R11)));
  check string_t "pinsrq" "pinsrq $1, %rdi, %xmm1"
    (p (Pinsrq (1, Psrc_reg Reg.RDI, 1)));
  check string_t "vinserti128" "vinserti128 $1, %xmm2, %ymm0, %ymm0"
    (p (Vinserti128 (1, 2, 0, 0)));
  check string_t "vptest" "vptest %ymm0, %ymm0" (p (Vptest (0, 0)))

let roundtrip_instr i =
  let line = Printer.string_of_instr i in
  match Parser.parse_instr line with
  | i' -> i = i'
  | exception Parser.Parse_error msg ->
    QCheck.Test.fail_reportf "parse error on %S: %s" line msg

let prop_instr_roundtrip =
  QCheck.Test.make ~name:"printer/parser instruction round-trip" ~count:2000
    (QCheck.make ~print:Printer.string_of_instr Tgen.instr)
    roundtrip_instr

let test_program_roundtrip () =
  (* full program round-trip including provenance comments *)
  let e = List.hd Ferrum_workloads.Catalog.all in
  let p =
    (Ferrum_eddi.Pipeline.protect Ferrum_eddi.Technique.Ferrum (e.build ()))
      .program
  in
  let p' = Parser.program (Printer.program_to_string p) in
  Alcotest.(check int) "instruction count survives"
    (Prog.num_instructions p) (Prog.num_instructions p');
  let a = Prog.provenance_counts p and b = Prog.provenance_counts p' in
  Alcotest.(check bool) "provenance survives" true (a = b)

(* ---- program validation ---- *)

let block label insns = Prog.block label (List.map Instr.original insns)

let test_validate_ok () =
  let p =
    Prog.program
      [ Prog.func "main"
          [ block "main" [ Instr.Jmp "next" ];
            block "next" [ Instr.Ret ] ] ]
  in
  Prog.validate p

let expect_ill_formed name p =
  match Prog.validate p with
  | () -> Alcotest.fail (name ^ ": expected Ill_formed")
  | exception Prog.Ill_formed _ -> ()

let test_validate_bad_target () =
  expect_ill_formed "unknown target"
    (Prog.program
       [ Prog.func "main" [ block "main" [ Instr.Jmp "nowhere" ] ] ])

let test_validate_fallthrough_end () =
  expect_ill_formed "falls off end"
    (Prog.program
       [ Prog.func "main"
           [ block "main" [ Instr.Mov (Reg.Q, Instr.Imm 0L, Instr.Reg Reg.RAX) ] ] ])

let test_validate_duplicate_label () =
  expect_ill_formed "duplicate label"
    (Prog.program
       [ Prog.func "main"
           [ block "main" [ Instr.Jmp "main" ]; block "main" [ Instr.Ret ] ] ])

let test_validate_unknown_call () =
  expect_ill_formed "unknown callee"
    (Prog.program
       [ Prog.func "main" [ block "main" [ Instr.Call "nope"; Instr.Ret ] ] ])

let test_validate_exit_function_allowed () =
  Prog.validate
    (Prog.program
       [ Prog.func "main"
           [ block "main" [ Instr.Jcc (Cond.NE, "exit_function"); Instr.Ret ] ] ])

(* ---- stats ---- *)

let test_stats () =
  let p =
    Prog.program
      [ Prog.func "main"
          [ Prog.block "main"
              [ Instr.original (Instr.Mov (Reg.Q, Instr.Mem (Instr.mem 0), Instr.Reg Reg.RAX));
                Instr.dup (Instr.Mov (Reg.Q, Instr.Mem (Instr.mem 0), Instr.Reg Reg.R10));
                Instr.check (Instr.Cmp (Reg.Q, Instr.Reg Reg.R10, Instr.Reg Reg.RAX));
                Instr.check (Instr.Jcc (Cond.NE, "exit_function"));
                Instr.original Instr.Ret ] ] ]
  in
  let s = Stats.of_program p in
  Alcotest.(check int) "total" 5 s.Stats.total;
  Alcotest.(check int) "originals" 2 s.Stats.originals;
  Alcotest.(check int) "dups" 1 s.Stats.dups;
  Alcotest.(check int) "checks" 2 s.Stats.checks;
  Alcotest.(check bool) "expansion" true
    (abs_float (Stats.expansion ~baseline:s ~protected_:s -. 1.0) < 1e-9)

let () =
  Alcotest.run "asm"
    [
      ( "registers",
        [ Alcotest.test_case "view names" `Quick test_gpr_names;
          Alcotest.test_case "name roundtrip" `Quick test_gpr_name_roundtrip;
          Alcotest.test_case "index roundtrip" `Quick test_gpr_index_roundtrip;
          Alcotest.test_case "sizes" `Quick test_sizes ] );
      ( "conditions",
        [ Alcotest.test_case "names" `Quick test_cond_names;
          Alcotest.test_case "flag reads" `Quick test_cond_reads ] );
      ( "metadata",
        [ Alcotest.test_case "defs" `Quick test_defs;
          Alcotest.test_case "gprs mentioned" `Quick test_gprs_mentioned;
          Alcotest.test_case "klass" `Quick test_klass ] );
      ( "text",
        [ Alcotest.test_case "printer examples" `Quick test_print_examples;
          QCheck_alcotest.to_alcotest prop_instr_roundtrip;
          Alcotest.test_case "program roundtrip" `Quick test_program_roundtrip
        ] );
      ( "validation",
        [ Alcotest.test_case "valid program" `Quick test_validate_ok;
          Alcotest.test_case "unknown target" `Quick test_validate_bad_target;
          Alcotest.test_case "fallthrough end" `Quick
            test_validate_fallthrough_end;
          Alcotest.test_case "duplicate label" `Quick
            test_validate_duplicate_label;
          Alcotest.test_case "unknown callee" `Quick test_validate_unknown_call;
          Alcotest.test_case "exit_function target" `Quick
            test_validate_exit_function_allowed ] );
      ("stats", [ Alcotest.test_case "counting" `Quick test_stats ]);
    ]
