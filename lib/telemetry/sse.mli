(** Server-Sent Events framing for [ferrum.events.v1] streams.

    Encoder for the daemon ([id:] = event sequence number, [data:] =
    the JSON record) and an incremental decoder for clients and tests.
    The decoder is framing-safe: frames split across arbitrary chunk
    boundaries reassemble into the same event list, so a decoded live
    stream can be handed to {!Events.replay} unchanged.  [id]s make
    `Last-Event-ID` resume exact — {!resume} is the server side of
    that contract. *)

(** {1 Encoding} *)

(** One SSE frame: [id: <id>\ndata: <data>\n\n]. *)
val encode : id:int -> string -> string

(** A comment frame ([: text]) — ignored by decoders; used as
    keep-alive and end-of-stream marker. *)
val comment : string -> string

(** A [retry: <ms>] frame (client reconnect delay hint). *)
val retry_frame : int -> string

(** {1 Decoding} *)

type decoder

(** One dispatched SSE event: its [id:] field (if any) and the joined
    [data:] payload. *)
type event = { id : int option; data : string }

val decoder : unit -> decoder

(** Feed one chunk of bytes; returns the events it completed, in
    stream order.  Partial frames are buffered until later chunks
    finish them. *)
val feed : decoder -> string -> event list

(** Id of the last dispatched event carrying one; [-1] initially —
    the value a reconnecting client sends as [Last-Event-ID]. *)
val last_event_id : decoder -> int

(** Decode a complete byte string. *)
val decode_string : string -> event list

(** {1 Resume} *)

(** Server side of [Last-Event-ID]: the suffix of an id-ordered
    [(id, data)] list strictly after [after] ([-1] = everything). *)
val resume : after:int -> (int * string) list -> (int * string) list

(** Encode an [(id, data)] list as consecutive frames. *)
val encode_lines : (int * string) list -> string
