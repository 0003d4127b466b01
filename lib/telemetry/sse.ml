(* Server-Sent Events framing for `ferrum.events.v1` streams.

   The daemon streams live campaign events as SSE: one event per frame,
   the JSON record as the [data:] field and the event's sequence number
   as the [id:] field, so a dropped client can resume with the standard
   `Last-Event-ID` request header and receive exactly the suffix it
   missed.  The decoder is an incremental state machine fed arbitrary
   byte chunks — frames split at any byte boundary reassemble to the
   same event list, which is what makes the stream validatable by
   {!Events.replay} end-to-end. *)

(* ------------------------------------------------------------------ *)
(* Encoding.                                                           *)
(* ------------------------------------------------------------------ *)

let encode ~id data = Fmt.str "id: %d\ndata: %s\n\n" id data

(* A comment frame: ignored by decoders, useful as a keep-alive and as
   an explicit end-of-stream marker that is not an event. *)
let comment text = Fmt.str ": %s\n\n" text

let retry_frame ms = Fmt.str "retry: %d\n\n" ms

(* ------------------------------------------------------------------ *)
(* Decoding.                                                           *)
(* ------------------------------------------------------------------ *)

(* Per the SSE spec (reduced to what the encoder emits): fields are
   [name ":" [" "] value], an empty line dispatches the pending event,
   [data] lines accumulate joined by newlines, [id] sets the last-event
   id, lines starting with ":" are comments, and a lone CR before LF is
   tolerated. *)
type event = { id : int option; data : string }

type decoder = {
  buf : Buffer.t;  (** undelivered partial line *)
  mutable data : string list;  (** pending data lines, reversed *)
  mutable ev_id : int option;  (** id field of the pending event *)
  mutable last_id : int;  (** last dispatched id, -1 initially *)
}

let decoder () = { buf = Buffer.create 256; data = []; ev_id = None; last_id = -1 }

let last_event_id d = d.last_id

let strip_cr line =
  let n = String.length line in
  if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line

let field_value line colon =
  let start =
    if colon + 1 < String.length line && line.[colon + 1] = ' ' then colon + 2
    else colon + 1
  in
  String.sub line start (String.length line - start)

(* Process one complete line; completed events are appended to [out]. *)
let line d out line =
  let line = strip_cr line in
  if line = "" then begin
    (* dispatch *)
    match (d.data, d.ev_id) with
    | [], None -> ()
    | data, id ->
      let data = String.concat "\n" (List.rev data) in
      (match id with Some i -> d.last_id <- i | None -> ());
      d.data <- [];
      d.ev_id <- None;
      if data <> "" then out := { id; data } :: !out
  end
  else if line.[0] = ':' then () (* comment *)
  else
    match String.index_opt line ':' with
    | None -> () (* field with no value: none we care about *)
    | Some colon -> (
      let name = String.sub line 0 colon in
      let value = field_value line colon in
      match name with
      | "data" -> d.data <- value :: d.data
      | "id" -> (
        match int_of_string_opt value with
        | Some i -> d.ev_id <- Some i
        | None -> ())
      | _ -> () (* event/retry/unknown: ignored *))

(* Feed a chunk; returns the events completed by it, in stream order. *)
let feed d chunk =
  let out = ref [] in
  String.iter
    (fun c ->
      if c = '\n' then begin
        let l = Buffer.contents d.buf in
        Buffer.clear d.buf;
        line d out l
      end
      else Buffer.add_char d.buf c)
    chunk;
  List.rev !out

(* Decode a whole byte string at once. *)
let decode_string s = feed (decoder ()) s

(* ------------------------------------------------------------------ *)
(* Resume.                                                             *)
(* ------------------------------------------------------------------ *)

(* Server side of `Last-Event-ID`: the suffix of an id-ordered event
   line list strictly after [after] ([-1] replays everything).  Lines
   are (id, data) pairs as the daemon stores them. *)
let resume ~after lines =
  List.filter (fun (id, _) -> id > after) lines

let encode_lines lines =
  String.concat "" (List.map (fun (id, data) -> encode ~id data) lines)
