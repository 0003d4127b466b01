(** x86-64 register model.

    Sixteen general-purpose registers with the architectural 8/16/32/
    64-bit views, and sixteen SIMD registers identified by index, where
    XMM{i}/YMM{i}/ZMM{i} alias the low 128/256/512 bits of the same
    physical register. *)

(** General-purpose registers. *)
type gpr =
  | RAX | RBX | RCX | RDX | RSI | RDI | RBP | RSP
  | R8 | R9 | R10 | R11 | R12 | R13 | R14 | R15

(** Operand widths: byte, word, double word, quad word. *)
type size = B | W | D | Q

(** A SIMD register index in [0, 15]. *)
type simd = int

(** All sixteen general-purpose registers, in encoding order. *)
val all_gprs : gpr list

(** Encoding number of a register, 0..15. *)
val gpr_index : gpr -> int

(** Inverse of {!gpr_index}; raises [Invalid_argument] outside 0..15. *)
val gpr_of_index : int -> gpr

(** Bytes in a value of the given width (1, 2, 4 or 8). *)
val size_bytes : size -> int

(** Bits in a value of the given width. *)
val size_bits : size -> int

(** AT&T mnemonic suffix for a width: "b", "w", "l" or "q". *)
val size_suffix : size -> string

val equal_gpr : gpr -> gpr -> bool

(** Total order on general-purpose registers (by encoding). *)
val compare_gpr : gpr -> gpr -> int

(** AT&T name of a register view, e.g. [gpr_name RAX D = "eax"],
    [gpr_name R10 B = "r10b"]. *)
val gpr_name : gpr -> size -> string

(** Parse any view name back to the register and the width it denotes. *)
val gpr_of_name : string -> (gpr * size) option

(** ["xmm3"]-style names for the three SIMD views of register [i]. *)
val xmm_name : simd -> string

val ymm_name : simd -> string
val zmm_name : simd -> string
