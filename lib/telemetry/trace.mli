(** Distributed traces: [ferrum.trace.v1].

    A campaign yields one stitched trace: spans with deterministic
    dotted-path ids and parent links, crossing process boundaries by
    fork (the worker pool serializes closed spans back over its pipe)
    and by traceparent-style HTTP headers (the serve daemon).

    Dual clocks keep identity tests exact: span rows carry only the
    deterministic logical clock and integer counters; wall intervals,
    CPU deltas and peak RSS go to a separate sidecar document of wall
    rows under the same schema. *)

val kind : string
(** ["ferrum.trace.v1"] *)

(** {1 Ids and contexts} *)

(** Deterministic 16-hex trace id from the campaign seed and a caller
    salt (manifest digest, spec text, ...). *)
val derive_id : seed:int64 -> string -> string

(** Everything a child process needs to continue a trace: trace id,
    parent link, and its pre-minted root span id. *)
type ctx = { c_trace : string; c_parent : string; c_span : string }

(** Mint a context by hand: the child's root span id is
    [parent ^ "." ^ seg] (or [seg] when parent is [""]). *)
val ctx_make : trace:string -> parent:string -> seg:string -> ctx

(** [00-<trace>-<span>-01] (W3C-shaped; our ids never contain '-'). *)
val to_traceparent : trace:string -> span:string -> string

(** Parse a traceparent header into (trace id, span id); [None] on
    anything malformed. *)
val of_traceparent : string -> (string * string) option

(** {1 Rows} *)

type span = {
  sp_id : string;
  sp_parent : string;  (** [""] for a trace root *)
  sp_name : string;
  sp_proc : string;  (** process label, e.g. "runner", "worker-3" *)
  sp_l_start : int;  (** logical clock at open (deterministic) *)
  sp_l_end : int;
  sp_counters : (string * int) list;  (** insertion order *)
}

type wall = {
  wl_span : string;
  wl_name : string;
  wl_proc : string;
  wl_start : float;  (** [Unix.gettimeofday] at open *)
  wl_end : float;
  wl_cpu_user : float;  (** CPU seconds over the span *)
  wl_cpu_sys : float;
  wl_maxrss_kb : int;  (** peak RSS at close; [-1] when unavailable *)
}

(** {1 Recorder} *)

type recorder

(** A root recorder: top-level spans get ids "0", "1", ... with empty
    parents. *)
val create : trace:string -> proc:string -> unit -> recorder

(** A recorder continuing a received context: its first top-level span
    is the context's pre-minted span id, parented under the sender. *)
val scoped : ctx -> proc:string -> recorder

(** Advance the logical clock (e.g. by an injected run's steps). *)
val advance : recorder -> int -> unit

(** Run [f] inside a named span; closes it even if [f] raises.
    [w_start] backdates the wall interval (e.g. queue wait measured
    from submission time). *)
val span : ?w_start:float -> recorder -> string -> (unit -> 'a) -> 'a

(** Attach a counter to the innermost open span (dropped when no span
    is open). *)
val counter : recorder -> string -> int -> unit

(** Mint a child-process context under the innermost open span.  [seg]
    must be a caller-unique non-numeric [0-9a-z]+ segment ("s5",
    "j12") so minted ids never collide with numbered children. *)
val ctx_for : recorder -> seg:string -> ctx

(** Merge serialized rows a child process sent back; kept verbatim, in
    absorption order, after this recorder's own rows. *)
val absorb : recorder -> span_lines:string list -> wall_lines:string list -> unit

(** Closed span rows as canonical JSONL record lines: own spans in
    start order, then absorbed rows.  Deterministic for a given seed.
    Open spans are not reported. *)
val span_lines : recorder -> string list

(** Wall sidecar record lines (non-deterministic; never byte-compared). *)
val wall_lines : recorder -> string list

(** This recorder's own closed spans as an indented tree, one line
    each: the name padded to [24 - 2*depth], the wall duration as
    [%8.3f ms] only with [~timings:true] (default false, so the output
    is deterministic), then [[k=v, ...]] when the span has counters. *)
val pp : ?timings:bool -> Format.formatter -> recorder -> unit

(** {1 Serialization} *)

val span_to_json : trace:string -> span -> Json.t

(** One wall row as a record line.  Wall times carry microseconds
    ([%.6f]); everything else renders as {!Json.to_string} would. *)
val wall_line : trace:string -> wall -> string

type row = Span_row of string * span | Wall_row of string * wall

(** Parse record lines (header excluded); errors carry the document
    line number (records start at line 2). *)
val rows_of_lines : string list -> (row list, string) result

val spans_of_rows : row list -> span list
val walls_of_rows : row list -> wall list

(** {1 Schema} *)

(** Field list for {!Metrics.validate_lines}; one list validates both
    row kinds (discriminator and ids required, the rest optional). *)
val fields : Metrics.field list

(** [ferrum.trace.v1] header with caller context appended. *)
val header : (string * Json.t) list -> Json.t

(** {1 Stitching validation} *)

(** Check record lines form one coherent trace: a single trace id,
    unique span ids, exactly one root, and every parent chain
    resolving to it without cycles.  Returns the root span id. *)
val validate_stitched : string list -> (string, string) result

(** {1 Span tree}

    One view of a span set, shared by validation, the exporters, the
    dashboard icicle and {!pp}.  Ids are assumed unique (see
    {!validate_stitched}); spans on a parent cycle are then unreachable
    from every root. *)

type tree

val tree : spans:span list -> walls:wall list -> tree

(** Spans whose parent is empty or outside the set, in the given
    order. *)
val roots : tree -> span list

(** Children in sibling order: logical start, then id compared
    segment by segment (letter prefix, then number: ["s2"] before
    ["s10"]).  Sorted once, when the tree is built. *)
val children : tree -> span -> span list

val wall_of : tree -> span -> wall option

(** {1 Exporters} *)

(** Chrome trace-event JSON (Perfetto-loadable): one "ph":"X" event
    per span; wall microseconds when the sidecar covers every span,
    logical steps otherwise. *)
val perfetto : spans:span list -> walls:wall list -> Json.t

(** Folded flamegraph stacks ("a;b;c <self-weight>"), sorted, weights
    on the same clock selection as {!perfetto}. *)
val folded : spans:span list -> walls:wall list -> string list
