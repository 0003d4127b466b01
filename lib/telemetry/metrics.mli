(** Streaming JSONL metrics files: one header line (schema name +
    version + caller context — the only place wall-clock values may
    appear), then one JSON record per event, bit-reproducible for a
    given campaign seed.  Includes enough schema machinery to validate
    files the subsystem wrote itself. *)

val schema_version : int

(** {1 Sinks} *)

type sink

(** Truncate/create [path] and close it on [close]. *)
val file_sink : string -> sink

val buffer_sink : Buffer.t -> sink

(** Write one JSON value as one line. *)
val emit : sink -> Json.t -> unit

val close : sink -> unit

(** Header line: [schema]/[version] fields followed by caller context
    (benchmark, technique, seed, ...). *)
val header : kind:string -> (string * Json.t) list -> Json.t

(** {1 Validation} *)

type field_kind = F_int | F_float | F_string
type field

val field : ?required:bool -> string -> field_kind -> field

(** Check one object: required fields present and well-typed; unknown
    fields allowed. *)
val validate_fields : field list -> Json.t -> (unit, string) result

(** Validate a whole JSONL document (header of [kind], then records);
    returns the record count. *)
val validate_lines :
  kind:string -> record_fields:field list -> string list ->
  (int, string) result

(** Non-empty lines of a string / file. *)
val lines_of_string : string -> string list

val read_lines : string -> string list
