(** Unchecked primitives of the simulator's hot paths.

    Every unchecked load or store in [lib/] goes through these
    declarations.  They are [external]s in this interface too, so a call
    compiles to the bare primitive even across [-opaque] module
    boundaries.  None of them checks its index: each caller must have
    validated it first. *)

(** Register-file lane [i]: a direct load from the bigarray data. *)
external bget :
  (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t ->
  int ->
  int64 = "%caml_ba_unsafe_ref_1"

(** Store into register-file lane [i]; no write barrier. *)
external bset :
  (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t ->
  int ->
  int64 ->
  unit = "%caml_ba_unsafe_set_1"

(** Native-endian 8-byte load at byte offset [a]. *)
external b_get64u : bytes -> int -> int64 = "%caml_bytes_get64u"

(** Native-endian 8-byte store at byte offset [a]. *)
external b_set64u : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"

(** Native-endian 4-byte load at byte offset [a]. *)
external b_get32u : bytes -> int -> int32 = "%caml_bytes_get32u"

(** Element [i] of an array (the dispatch tables of decoded programs). *)
external aget : 'a array -> int -> 'a = "%array_unsafe_get"

(** Byte [i] (the dirty-page bitmap, byte-wise memory compares). *)
external byte_get : bytes -> int -> char = "%bytes_unsafe_get"

(** Store byte [i]. *)
external byte_set : bytes -> int -> char -> unit = "%bytes_unsafe_set"
