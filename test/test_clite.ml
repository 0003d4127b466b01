(* Tests for the C-lite frontend: lexer, parser (precedence), lowering
   semantics (differential against both the IR interpreter and the
   compiled simulation), error reporting, and the full protection
   pipeline over C input. *)

module Clite = Ferrum_clite.Clite
module Lexer = Ferrum_clite.Lexer
module Parser = Ferrum_clite.Parser
module Ast = Ferrum_clite.Ast
module Token = Ferrum_clite.Token
module Machine = Ferrum_machine.Machine
module Predecode = Ferrum_machine.Predecode
module Pipeline = Ferrum_eddi.Pipeline
module Technique = Ferrum_eddi.Technique

(* Compile a source string, check interpreter = simulator, and return
   the output. *)
let run_c src =
  let m = Clite.compile src in
  let interp = (Ferrum_ir.Interp.run m).Ferrum_ir.Interp.output in
  match Predecode.run_fresh (Machine.load (Pipeline.raw m).program) with
  | Machine.Exit out, _ ->
    Alcotest.(check (list int64)) "interp = compiled" interp out;
    out
  | o, _ -> Alcotest.failf "compiled run failed: %a" Machine.pp_outcome o

let check_out name src expect =
  Alcotest.(check (list int64)) name expect (run_c src)

(* ---- lexer ---- *)

let test_lexer_basic () =
  let toks =
    List.map (fun (t : Token.spanned) -> t.Token.tok)
      (Lexer.tokenize "long x = 0x10 + 42; // comment\nx = x << 2;")
  in
  Alcotest.(check bool) "tokens" true
    (toks
    = Token.[ KW_LONG; IDENT "x"; ASSIGN; INT 16L; PLUS; INT 42L; SEMI;
              IDENT "x"; ASSIGN; IDENT "x"; SHL; INT 2L; SEMI; EOF ])

let test_lexer_comments_and_lines () =
  let toks = Lexer.tokenize "/* multi\nline */ long y;" in
  (match toks with
  | { Token.tok = Token.KW_LONG; line } :: _ ->
    Alcotest.(check int) "line tracked through comment" 2 line
  | _ -> Alcotest.fail "bad tokens");
  match Lexer.tokenize "/* unterminated" with
  | _ -> Alcotest.fail "expected lex error"
  | exception Lexer.Error _ -> ()

let test_lexer_two_char_ops () =
  let toks =
    List.map (fun (t : Token.spanned) -> t.Token.tok)
      (Lexer.tokenize "<= >= == != && || << >> < >")
  in
  Alcotest.(check bool) "ops" true
    (toks = Token.[ LE; GE; EQ; NE; ANDAND; PIPEPIPE; SHL; SHR; LT; GT; EOF ])

(* ---- parser: precedence ---- *)

let parse_expr_of src =
  let p = Parser.parse ("void main() { long t = " ^ src ^ "; }") in
  match (List.hd p.Ast.funcs).Ast.body with
  | [ Ast.Decl (_, Some e) ] -> e
  | _ -> Alcotest.fail "unexpected body"

let test_precedence () =
  (match parse_expr_of "1 + 2 * 3" with
  | Ast.Binop (Ast.Add, Ast.Int 1L, Ast.Binop (Ast.Mul, Ast.Int 2L, Ast.Int 3L))
    -> ()
  | _ -> Alcotest.fail "mul binds tighter than add");
  (match parse_expr_of "1 < 2 == 3 < 4" with
  | Ast.Binop (Ast.Eq, Ast.Binop (Ast.Lt, _, _), Ast.Binop (Ast.Lt, _, _)) ->
    ()
  | _ -> Alcotest.fail "relational binds tighter than equality");
  (match parse_expr_of "1 | 2 & 3" with
  | Ast.Binop (Ast.BOr, Ast.Int 1L, Ast.Binop (Ast.BAnd, _, _)) -> ()
  | _ -> Alcotest.fail "& binds tighter than |");
  (match parse_expr_of "1 && 2 || 3" with
  | Ast.Binop (Ast.LOr, Ast.Binop (Ast.LAnd, _, _), Ast.Int 3L) -> ()
  | _ -> Alcotest.fail "&& binds tighter than ||");
  match parse_expr_of "-x[2]" with
  | Ast.Unop (Ast.Neg, Ast.Index ("x", Ast.Int 2L)) -> ()
  | _ -> Alcotest.fail "unary over postfix"

let test_parse_errors () =
  let bad src =
    match Parser.parse src with
    | _ -> Alcotest.failf "expected parse error for %S" src
    | exception Parser.Error _ -> ()
  in
  bad "void main() { long; }";
  bad "void main() { if (1) return; }" (* blocks are mandatory *) ;
  bad "void main() { x = ; }";
  bad "long g[; void main() {}";
  bad "void v; void main() {}"

(* ---- semantics ---- *)

let test_arith_semantics () =
  check_out "division truncates toward zero"
    "void main() { print(-17 / 5); print(-17 % 5); print(17 / -5); }"
    [ -3L; -2L; -3L ];
  check_out "shift semantics"
    "void main() { print(-1024 >> 3); print(3 << 4); }"
    [ -128L; 48L ];
  check_out "bitwise and unary"
    "void main() { print(12 & 10); print(12 | 3); print(12 ^ 10); print(~0); print(!5); print(!0); }"
    [ 8L; 15L; 6L; -1L; 0L; 1L ];
  check_out "comparisons produce 0/1"
    "void main() { print(3 < 4); print(4 <= 3); print(-1 > -2); print(5 == 5); }"
    [ 1L; 0L; 1L; 1L ]

let test_short_circuit () =
  (* the right operand must not evaluate when the left decides *)
  check_out "short circuit"
    "long calls;\n\
     long bump() { calls = calls + 1; return 1; }\n\
     void main() {\n\
     \  calls = 0;\n\
     \  print(0 && bump());\n\
     \  print(calls);\n\
     \  print(1 || bump());\n\
     \  print(calls);\n\
     \  print(1 && bump());\n\
     \  print(calls);\n\
     }"
    [ 0L; 0L; 1L; 0L; 1L; 1L ]

let test_control_flow () =
  check_out "factorial via while"
    "void main() { long n = 10; long f = 1; while (n > 1) { f = f * n; n = n - 1; } print(f); }"
    [ 3628800L ];
  check_out "for with break/continue"
    "void main() {\n\
     \  long acc = 0;\n\
     \  for (long i = 0; i < 100; i = i + 1) {\n\
     \    if (i % 2 == 0) { continue; }\n\
     \    if (i > 10) { break; }\n\
     \    acc = acc + i;\n\
     \  }\n\
     \  print(acc);\n\
     }"
    [ 25L ] (* 1+3+5+7+9 *);
  check_out "if/else if chain"
    "long grade(long x) { if (x > 90) { return 4; } else if (x > 80) { return 3; } else { return 0; } }\n\
     void main() { print(grade(95)); print(grade(85)); print(grade(10)); }"
    [ 4L; 3L; 0L ]

let test_functions_and_recursion () =
  check_out "recursive gcd"
    "long gcd(long a, long b) { if (b == 0) { return a; } return gcd(b, a % b); }\n\
     void main() { print(gcd(1071, 462)); }"
    [ 21L ];
  check_out "fall-through returns 0"
    "long nothing() { }\nvoid main() { print(nothing()); }"
    [ 0L ]

let test_arrays () =
  check_out "global and local arrays"
    "long g[8];\n\
     void main() {\n\
     \  long l[4];\n\
     \  for (long i = 0; i < 8; i = i + 1) { g[i] = i * i; }\n\
     \  for (long i = 0; i < 4; i = i + 1) { l[i] = g[i + 2]; }\n\
     \  print(l[0] + l[1] + l[2] + l[3]);\n\
     }"
    [ 54L ] (* 4 + 9 + 16 + 25 *)

let test_array_params () =
  check_out "array parameters share storage"
    "long buf[6];\n\
     void fill(long a[], long n) { for (long i = 0; i < n; i = i + 1) { a[i] = i + 1; } }\n\
     long sum(long a[], long n) { long s = 0; for (long i = 0; i < n; i = i + 1) { s = s + a[i]; } return s; }\n\
     void main() { fill(buf, 6); print(sum(buf, 6)); }"
    [ 21L ]

let test_globals_zero_initialised () =
  check_out "globals start at zero"
    "long g;\nlong a[3];\nvoid main() { print(g + a[0] + a[2]); }"
    [ 0L ]

(* ---- lowering errors ---- *)

let test_lowering_errors () =
  let bad src =
    match Clite.compile src with
    | _ -> Alcotest.failf "expected error for %S" src
    | exception Clite.Error _ -> ()
  in
  bad "void main() { print(x); }";
  bad "void main() { long x = 1; long x = 2; }";
  bad "void f() {} void main() { print(f()); }";
  bad "void main() { break; }";
  bad "void f() {}";
  bad "long a[0]; void main() {}";
  bad "void main() { nope(); }";
  bad "long x; void main() { print(x[0]); }"

(* ---- full pipeline over the example programs ---- *)

let example_goldens =
  [ ("examples/programs/matmul.c", [ 4001L; 24099L; 14807L ]);
    ("examples/programs/sort.c", [ 1L; 3423L; 64382L; 17L; -1L ]) ]

(* the test binary runs from test/; examples live one level up *)
let example_path p =
  if Sys.file_exists p then p else Filename.concat ".." p

let test_example_programs () =
  List.iter
    (fun (path, expect) ->
      let m = Clite.compile_file (example_path path) in
      let raw = (Pipeline.raw m).program in
      (match Predecode.run_fresh (Machine.load raw) with
      | Machine.Exit out, _ ->
        Alcotest.(check (list int64)) (path ^ " golden") expect out
      | o, _ -> Alcotest.failf "%s: %a" path Machine.pp_outcome o);
      List.iter
        (fun t ->
          let p = (Pipeline.protect t m).program in
          match Predecode.run_fresh (Machine.load p) with
          | Machine.Exit out, _ ->
            Alcotest.(check (list int64))
              (path ^ " " ^ Technique.short_name t)
              expect out
          | o, _ ->
            Alcotest.failf "%s under %s: %a" path (Technique.name t)
              Machine.pp_outcome o)
        Technique.all)
    example_goldens

let test_example_no_sdc_under_ferrum () =
  let m = Clite.compile_file (example_path "examples/programs/sort.c") in
  let p = (Pipeline.protect Technique.Ferrum m).program in
  let c =
    Ferrum_report.Experiments.campaign_counts ~seed:13L ~samples:150
      (Machine.load p)
  in
  Alcotest.(check int) "no sdc" 0 c.Ferrum_faultsim.Faultsim.sdc

let () =
  Alcotest.run "clite"
    [
      ( "lexer",
        [ Alcotest.test_case "basics" `Quick test_lexer_basic;
          Alcotest.test_case "comments + lines" `Quick
            test_lexer_comments_and_lines;
          Alcotest.test_case "two-char operators" `Quick
            test_lexer_two_char_ops ] );
      ( "parser",
        [ Alcotest.test_case "precedence" `Quick test_precedence;
          Alcotest.test_case "errors" `Quick test_parse_errors ] );
      ( "semantics",
        [ Alcotest.test_case "arithmetic" `Quick test_arith_semantics;
          Alcotest.test_case "short circuit" `Quick test_short_circuit;
          Alcotest.test_case "control flow" `Quick test_control_flow;
          Alcotest.test_case "functions" `Quick test_functions_and_recursion;
          Alcotest.test_case "arrays" `Quick test_arrays;
          Alcotest.test_case "array parameters" `Quick test_array_params;
          Alcotest.test_case "globals" `Quick test_globals_zero_initialised ]
      );
      ( "errors",
        [ Alcotest.test_case "lowering errors" `Quick test_lowering_errors ] );
      ( "pipeline",
        [ Alcotest.test_case "example programs x techniques" `Quick
            test_example_programs;
          Alcotest.test_case "FERRUM coverage on C input" `Slow
            test_example_no_sdc_under_ferrum ] );
    ]
