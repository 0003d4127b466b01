(** Campaign run directories and canonical metrics headers.

    A finished run directory holds [manifest.json], [injection.jsonl],
    [events.jsonl], [stats.jsonl], [trace.jsonl] (stitched
    [ferrum.trace.v1] spans, logical clocks only), [trace-wall.jsonl]
    (its non-deterministic wall/CPU/RSS sidecar), optionally
    [vulnmap.jsonl], and a [parts/] directory of per-shard resume
    state.  The header builders here are the single source of campaign
    metrics headers — the CLI's [--metrics]/[--stats] files and run
    directories share them, which is what makes output byte-comparable
    across shard counts. *)

module Json = Ferrum_telemetry.Json

val injection_header :
  benchmark:string -> technique:string -> samples:int -> seed:int64 ->
  all_sites:bool -> fault_bits:int -> Json.t

val vulnmap_header :
  benchmark:string -> technique:string -> samples:int -> seed:int64 ->
  all_sites:bool -> fault_bits:int -> Json.t

val events_header :
  benchmark:string -> technique:string -> samples:int -> seed:int64 ->
  all_sites:bool -> fault_bits:int -> shards:int -> Json.t

(** [ferrum.stats.v1] header with the shared campaign config fields. *)
val stats_header :
  benchmark:string -> technique:string -> samples:int -> seed:int64 ->
  all_sites:bool -> fault_bits:int -> Json.t

val injection_file : string
val vulnmap_file : string
val events_file : string

val stats_file : string
(** ["stats.jsonl"] — [ferrum.stats.v1] convergence document *)

val trace_file : string
(** ["trace.jsonl"] — stitched [ferrum.trace.v1] span document *)

val trace_wall_file : string
(** ["trace-wall.jsonl"] — wall/CPU/RSS sidecar (non-deterministic,
    excluded from the manifest's schema map and byte comparisons) *)

(** [parts_dir dir] is the per-shard resume-state directory of run
    directory [dir]. *)
val parts_dir : string -> string

(** [open_run ~resume ~dir manifest] readies run directory [dir]
    (created if missing) for a run under [manifest]: unless [resume],
    it clears [parts/] when the manifest recorded in [dir] is missing or
    not {!Manifest.compatible} with [manifest]; then it saves
    [manifest], so an interrupted run leaves [parts/] and the manifest
    that vouches for it. *)
val open_run : resume:bool -> dir:string -> Manifest.t -> unit

(** One JSONL document: header line then record lines. *)
val jsonl : Json.t -> string list -> string

(** Write a finished run's files (atomically, write-then-rename).
    [extra_trace] is [(span_rows, wall_rows)] from an enclosing tracer
    (e.g. the serve daemon's job spans), prepended to the campaign's
    own rows so the stored trace is the whole stitched story. *)
val write_run :
  ?extra_trace:string list * string list ->
  dir:string ->
  manifest:Manifest.t ->
  result:Runner.result ->
  unit ->
  unit

(** {1 Content-addressed run store ([ferrum.run.v1])}

    Layout under a store root: one immutable directory per run named
    by its {!Manifest.digest}, plus [index.jsonl] — a
    [ferrum.run.v1] JSONL document with one record per published run
    in publication order.  Publishing an already-stored digest is a
    cache hit: the stored bytes win and are served unchanged. *)

val run_kind : string
(** ["ferrum.run.v1"] *)

val run_file : string
(** ["run.json"] — per-entry [ferrum.run.v1] header + one record *)

val dashboard_file : string
(** ["dashboard.html"] *)

(** Field list for {!Ferrum_telemetry.Metrics.validate_lines}. *)
val run_fields : Ferrum_telemetry.Metrics.field list

(** The one [ferrum.run.v1] record of a finished run: digest, config
    and outcome tallies. *)
val run_record : manifest:Manifest.t -> result:Runner.result -> Json.t

(** [ferrum.run.v1] header with caller context appended. *)
val run_header : (string * Json.t) list -> Json.t

(** [entry_dir ~root digest] is the entry directory for [digest]. *)
val entry_dir : root:string -> string -> string

val index_file : string -> string

type lookup =
  | Hit of string  (** entry directory; contents verified coherent *)
  | Corrupt of string  (** entry present but fails verification *)
  | Miss

(** Verify-and-locate: the stored manifest must re-digest to the
    entry name and every artifact it promises must exist. *)
val lookup : root:string -> string -> lookup

(** Rebuild [index.jsonl] from the entries on disk, preserving the
    existing index's publication order and appending new digests;
    returns the indexed digests in order. *)
val rebuild_index : root:string -> string list

(** Publish a finished run directory (already containing [run.json])
    into the store under its manifest digest; the source directory is
    consumed (renamed in, EXDEV-safe).  A second publish of the same
    digest is a cache hit: the existing entry wins and the source is
    discarded.  A new entry's record is appended to the index (no
    re-verification of the entries already indexed); only replacing a
    corrupt entry, or a missing index, runs {!rebuild_index}.  Returns
    the digest. *)
val publish : root:string -> src:string -> (string, string) result
