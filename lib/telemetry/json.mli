(** Minimal JSON for the telemetry subsystem: canonical serialisation
    (insertion-ordered object keys, fixed number formats) so same-seed
    campaigns write byte-identical JSONL, plus a parser sufficient to
    validate files the subsystem wrote itself. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(** Compact, canonical rendering (no whitespace). *)
val to_string : t -> string

(** How {!to_string} prints a [Float]: ["%.1f"] for integral values
    below 1e15, else ["%.12g"]. *)
val float_repr : float -> string

exception Parse_error of string

(** Parse one JSON value; raises {!Parse_error} on malformed or
    trailing input. *)
val of_string : string -> t

val of_string_opt : string -> t option

(** Object field lookup; [None] on non-objects and missing keys. *)
val member : string -> t -> t option
