(* Parser for the AT&T-syntax subset emitted by {!Printer}.  Intended for
   round-tripping protected programs through text (tests, CLI, external
   inspection), not for arbitrary compiler output. *)

open Instr

exception Parse_error of string

let parse_error fmt = Fmt.kstr (fun s -> raise (Parse_error s)) fmt

let is_space c = c = ' ' || c = '\t'

let strip s =
  let n = String.length s in
  let i = ref 0 and j = ref (n - 1) in
  while !i < n && is_space s.[!i] do incr i done;
  while !j >= !i && is_space s.[!j] do decr j done;
  String.sub s !i (!j - !i + 1)

(* Split "op a, b, c" into the mnemonic and comma-separated operands,
   ignoring any "# ..." comment suffix. *)
let split_line line =
  let line =
    match String.index_opt line '#' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  let line = strip line in
  match String.index_opt line ' ' with
  | None -> (line, [])
  | Some i ->
    let mnem = String.sub line 0 i in
    let rest = String.sub line i (String.length line - i) in
    (* split on commas outside parentheses: memory operands such as
       (%rax,%rcx,8) contain commas of their own *)
    let parts = ref [] and buf = Buffer.create 16 and depth = ref 0 in
    String.iter
      (fun c ->
        match c with
        | '(' ->
          incr depth;
          Buffer.add_char buf c
        | ')' ->
          decr depth;
          Buffer.add_char buf c
        | ',' when !depth = 0 ->
          parts := Buffer.contents buf :: !parts;
          Buffer.clear buf
        | c -> Buffer.add_char buf c)
      rest;
    parts := Buffer.contents buf :: !parts;
    (mnem, List.rev_map strip !parts)

let parse_gpr s =
  if String.length s < 2 || s.[0] <> '%' then
    parse_error "expected register, got %S" s
  else
    let name = String.sub s 1 (String.length s - 1) in
    match Reg.gpr_of_name name with
    | Some rs -> rs
    | None -> parse_error "unknown register %S" s

let parse_simd s =
  if String.length s < 5 || s.[0] <> '%' then
    parse_error "expected SIMD register, got %S" s
  else
    let name = String.sub s 1 (String.length s - 1) in
    let prefix = String.sub name 0 3 in
    if prefix <> "xmm" && prefix <> "ymm" && prefix <> "zmm" then
      parse_error "expected SIMD register, got %S" s
    else
      match int_of_string_opt (String.sub name 3 (String.length name - 3)) with
      | Some i when i >= 0 && i < 16 -> i
      | _ -> parse_error "bad SIMD register %S" s

let parse_imm s =
  if String.length s < 2 || s.[0] <> '$' then
    parse_error "expected immediate, got %S" s
  else
    match Int64.of_string_opt (String.sub s 1 (String.length s - 1)) with
    | Some i -> i
    | None -> parse_error "bad immediate %S" s

(* Memory operand: [disp] "(" %base [ "," %index "," scale ] ")" or a bare
   absolute displacement. *)
let parse_mem s =
  match String.index_opt s '(' with
  | None -> (
    match int_of_string_opt s with
    | Some disp -> mem disp
    | None -> parse_error "bad memory operand %S" s)
  | Some lp ->
    let disp =
      if lp = 0 then 0
      else
        match int_of_string_opt (String.sub s 0 lp) with
        | Some d -> d
        | None -> parse_error "bad displacement in %S" s
    in
    let rp =
      match String.index_opt s ')' with
      | Some i -> i
      | None -> parse_error "unterminated memory operand %S" s
    in
    let inner = String.sub s (lp + 1) (rp - lp - 1) in
    let parts = List.map strip (String.split_on_char ',' inner) in
    let reg_of s = fst (parse_gpr s) in
    (match parts with
    | [ b ] -> { base = Some (reg_of b); index = None; scale = 1; disp }
    | [ b; i; sc ] ->
      let base = if String.equal b "" then None else Some (reg_of b) in
      let scale =
        match int_of_string_opt sc with
        | Some k -> k
        | None -> parse_error "bad scale in %S" s
      in
      { base; index = Some (reg_of i); scale; disp }
    | _ -> parse_error "bad memory operand %S" s)

let parse_operand s =
  if s = "" then parse_error "empty operand"
  else if s.[0] = '$' then Imm (parse_imm s)
  else if s.[0] = '%' then Reg (fst (parse_gpr s))
  else Mem (parse_mem s)

let alu_of_mnem = function
  | "add" -> Some Add | "sub" -> Some Sub | "imul" -> Some Imul
  | "and" -> Some And | "or" -> Some Or | "xor" -> Some Xor
  | _ -> None

let shift_of_mnem = function
  | "shl" -> Some Shl | "sar" -> Some Sar | "shr" -> Some Shr
  | _ -> None

let size_of_suffix = function
  | 'b' -> Some Reg.B | 'w' -> Some Reg.W | 'l' -> Some Reg.D
  | 'q' -> Some Reg.Q | _ -> None

(* Split a sized mnemonic like "movq" into ("mov", Q). *)
let split_sized mnem =
  let n = String.length mnem in
  if n < 2 then None
  else
    match size_of_suffix mnem.[n - 1] with
    | Some s -> Some (String.sub mnem 0 (n - 1), s)
    | None -> None

let is_simd_operand s = String.length s > 4 && s.[0] = '%'
  && (String.sub s 1 3 = "xmm" || String.sub s 1 3 = "ymm"
     || String.sub s 1 3 = "zmm")

let parse_instr line : t =
  let mnem, ops = split_line line in
  let op2 k =
    match ops with
    | [ a; b ] -> k a b
    | _ -> parse_error "expected 2 operands in %S" line
  in
  match (mnem, ops) with
  | "ret", [] -> Ret
  | "cqto", [] -> Cqto
  | "jmp", [ l ] -> Jmp l
  | "call", [ f ] -> Call f
  | "movslq", [ a; b ] -> Movslq (parse_operand a, fst (parse_gpr b))
  | "movzbq", [ a; b ] -> Movzbq (parse_operand a, fst (parse_gpr b))
  | "leaq", [ a; b ] -> Lea (parse_mem a, fst (parse_gpr b))
  | "pushq", [ a ] -> Push (parse_operand a)
  | "popq", [ a ] -> Pop (fst (parse_gpr a))
  | "pinsrq", [ l; s; d ] ->
    let lane = Int64.to_int (parse_imm l) in
    let src =
      if s.[0] = '%' then Psrc_reg (fst (parse_gpr s)) else Psrc_mem (parse_mem s)
    in
    Pinsrq (lane, src, parse_simd d)
  | "pextrq", [ l; s; d ] ->
    Pextrq (Int64.to_int (parse_imm l), parse_simd s, fst (parse_gpr d))
  | "vinserti128", [ l; s; a; d ] ->
    Vinserti128 (Int64.to_int (parse_imm l), parse_simd s, parse_simd a,
      parse_simd d)
  | "vpxor", [ a; b; d ] -> Vpxor (parse_simd a, parse_simd b, parse_simd d)
  | "vptest", [ a; b ] -> Vptest (parse_simd a, parse_simd b)
  | "vinserti64x4", [ l; s; a; d ] ->
    Vinserti64x4 (Int64.to_int (parse_imm l), parse_simd s, parse_simd a,
      parse_simd d)
  | "vpxorq", [ a; b; d ] ->
    Vpxorq512 (parse_simd a, parse_simd b, parse_simd d)
  | "vptestmq", [ a; b ] -> Vptestmq512 (parse_simd a, parse_simd b)
  | "movq", [ a; b ] when is_simd_operand a || is_simd_operand b ->
    if is_simd_operand a then MovQ_from_xmm (parse_simd a, fst (parse_gpr b))
    else MovQ_to_xmm (parse_operand a, parse_simd b)
  | _ -> (
    (* setcc / jcc *)
    if String.length mnem > 3 && String.sub mnem 0 3 = "set" then
      match (Cond.of_name (String.sub mnem 3 (String.length mnem - 3)), ops)
      with
      | Some c, [ o ] -> Set (c, parse_operand o)
      | _ -> parse_error "bad setcc %S" line
    else if
      String.length mnem >= 2 && mnem.[0] = 'j'
      && Cond.of_name (String.sub mnem 1 (String.length mnem - 1)) <> None
    then
      match (Cond.of_name (String.sub mnem 1 (String.length mnem - 1)), ops)
      with
      | Some c, [ l ] -> Jcc (c, l)
      | _ -> parse_error "bad jcc %S" line
    else
      match split_sized mnem with
      | None -> parse_error "unknown mnemonic %S" line
      | Some (base, s) -> (
        match base with
        | "mov" -> op2 (fun a b -> Mov (s, parse_operand a, parse_operand b))
        | "cmp" -> op2 (fun a b -> Cmp (s, parse_operand a, parse_operand b))
        | "test" -> op2 (fun a b -> Test (s, parse_operand a, parse_operand b))
        | "neg" -> (
          match ops with
          | [ o ] -> Neg (s, parse_operand o)
          | _ -> parse_error "bad neg %S" line)
        | "not" -> (
          match ops with
          | [ o ] -> Not (s, parse_operand o)
          | _ -> parse_error "bad not %S" line)
        | "idiv" -> (
          match ops with
          | [ o ] -> Idiv (s, parse_operand o)
          | _ -> parse_error "bad idiv %S" line)
        | _ -> (
          match (alu_of_mnem base, shift_of_mnem base) with
          | Some a, _ ->
            op2 (fun x y -> Alu (a, s, parse_operand x, parse_operand y))
          | None, Some k -> (
            match ops with
            | [ amt; dst ] ->
              let amount =
                if String.equal amt "%cl" then Amt_cl
                else Amt_imm (Int64.to_int (parse_imm amt))
              in
              Shift (k, s, amount, parse_operand dst)
            | _ -> parse_error "bad shift %S" line)
          | None, None -> parse_error "unknown mnemonic %S" line)))

(* Parse a whole program in the format produced by {!Printer.program_to_string}.
   Provenance comments are restored from the trailing "# dup" / "# check"
   / "# instr" markers. *)
let program text : Prog.t =
  let lines = String.split_on_char '\n' text in
  let funcs = ref [] in
  let cur_fname = ref None in
  let cur_blocks = ref [] in
  let cur_label = ref None in
  let cur_insns = ref [] in
  let flush_block () =
    match !cur_label with
    | None ->
      if !cur_insns <> [] then parse_error "instructions before any label"
    | Some l ->
      cur_blocks := Prog.block l (List.rev !cur_insns) :: !cur_blocks;
      cur_label := None;
      cur_insns := []
  in
  let flush_func () =
    flush_block ();
    match !cur_fname with
    | None -> if !cur_blocks <> [] then parse_error "blocks before .globl"
    | Some name ->
      funcs := Prog.func name (List.rev !cur_blocks) :: !funcs;
      cur_fname := None;
      cur_blocks := []
  in
  let prov_of_line line =
    match String.index_opt line '#' with
    | None -> Original
    | Some i ->
      let tag = strip (String.sub line (i + 1) (String.length line - i - 1)) in
      (match tag with
      | "dup" -> Dup
      | "check" -> Check
      | "instr" -> Instrumentation
      | _ -> Original)
  in
  List.iter
    (fun raw ->
      let line = strip raw in
      if String.equal line "" || String.equal line ".text" then ()
      else if String.length line > 6 && String.sub line 0 6 = ".globl" then begin
        flush_func ();
        cur_fname := Some (strip (String.sub line 6 (String.length line - 6)))
      end
      else if String.length line > 0 && line.[String.length line - 1] = ':'
      then begin
        flush_block ();
        cur_label := Some (String.sub line 0 (String.length line - 1))
      end
      else
        let op = parse_instr line in
        cur_insns := { op; prov = prov_of_line raw } :: !cur_insns)
    lines;
  flush_func ();
  Prog.program (List.rev !funcs)
