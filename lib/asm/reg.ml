(* x86-64 register model: 16 general-purpose registers with the usual
   8/16/32/64-bit views, and 16 SIMD registers where each YMM register
   aliases the XMM register of the same index in its low 128 bits. *)

type gpr =
  | RAX | RBX | RCX | RDX | RSI | RDI | RBP | RSP
  | R8 | R9 | R10 | R11 | R12 | R13 | R14 | R15

type size = B | W | D | Q

(* SIMD registers are identified by index 0..15; whether an operand views
   the register as XMM (128-bit) or YMM (256-bit) is carried separately. *)
type simd = int

let all_gprs =
  [ RAX; RBX; RCX; RDX; RSI; RDI; RBP; RSP;
    R8; R9; R10; R11; R12; R13; R14; R15 ]

let gpr_index = function
  | RAX -> 0 | RBX -> 1 | RCX -> 2 | RDX -> 3
  | RSI -> 4 | RDI -> 5 | RBP -> 6 | RSP -> 7
  | R8 -> 8 | R9 -> 9 | R10 -> 10 | R11 -> 11
  | R12 -> 12 | R13 -> 13 | R14 -> 14 | R15 -> 15

let gpr_of_index = function
  | 0 -> RAX | 1 -> RBX | 2 -> RCX | 3 -> RDX
  | 4 -> RSI | 5 -> RDI | 6 -> RBP | 7 -> RSP
  | 8 -> R8 | 9 -> R9 | 10 -> R10 | 11 -> R11
  | 12 -> R12 | 13 -> R13 | 14 -> R14 | 15 -> R15
  | n -> invalid_arg (Printf.sprintf "Reg.gpr_of_index: %d" n)

let size_bytes = function B -> 1 | W -> 2 | D -> 4 | Q -> 8
let size_bits s = 8 * size_bytes s

let size_suffix = function B -> "b" | W -> "w" | D -> "l" | Q -> "q"

let equal_gpr (a : gpr) (b : gpr) = a = b

let compare_gpr a b = compare (gpr_index a) (gpr_index b)

(* AT&T names for each view of a general-purpose register. *)
let gpr_name r s =
  let base64, base32, base16, base8 =
    match r with
    | RAX -> "rax", "eax", "ax", "al"
    | RBX -> "rbx", "ebx", "bx", "bl"
    | RCX -> "rcx", "ecx", "cx", "cl"
    | RDX -> "rdx", "edx", "dx", "dl"
    | RSI -> "rsi", "esi", "si", "sil"
    | RDI -> "rdi", "edi", "di", "dil"
    | RBP -> "rbp", "ebp", "bp", "bpl"
    | RSP -> "rsp", "esp", "sp", "spl"
    | R8 -> "r8", "r8d", "r8w", "r8b"
    | R9 -> "r9", "r9d", "r9w", "r9b"
    | R10 -> "r10", "r10d", "r10w", "r10b"
    | R11 -> "r11", "r11d", "r11w", "r11b"
    | R12 -> "r12", "r12d", "r12w", "r12b"
    | R13 -> "r13", "r13d", "r13w", "r13b"
    | R14 -> "r14", "r14d", "r14w", "r14b"
    | R15 -> "r15", "r15d", "r15w", "r15b"
  in
  match s with Q -> base64 | D -> base32 | W -> base16 | B -> base8

let gpr_of_name name =
  let rec scan rs =
    match rs with
    | [] -> None
    | r :: rest ->
      let hit =
        List.exists (fun s -> String.equal (gpr_name r s) name) [ B; W; D; Q ]
      in
      if hit then
        let sz = List.find (fun s -> String.equal (gpr_name r s) name) [ B; W; D; Q ] in
        Some (r, sz)
      else scan rest
  in
  scan all_gprs

let xmm_name i = Printf.sprintf "xmm%d" i
let ymm_name i = Printf.sprintf "ymm%d" i
let zmm_name i = Printf.sprintf "zmm%d" i
