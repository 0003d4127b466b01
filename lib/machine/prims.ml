external bget :
  (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t ->
  int ->
  int64 = "%caml_ba_unsafe_ref_1"

external bset :
  (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t ->
  int ->
  int64 ->
  unit = "%caml_ba_unsafe_set_1"

external b_get64u : bytes -> int -> int64 = "%caml_bytes_get64u"

external b_set64u : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"

external b_get32u : bytes -> int -> int32 = "%caml_bytes_get32u"

external aget : 'a array -> int -> 'a = "%array_unsafe_get"

external byte_get : bytes -> int -> char = "%bytes_unsafe_get"

external byte_set : bytes -> int -> char -> unit = "%bytes_unsafe_set"
