(** Persistent campaign job queue ([ferrum.jobs.v1]).

    An append-only journal: a header, then one record per transition —
    {!submit} and {!update} each append one line, and the last record
    for an id wins, so a request costs the same however long the
    history is.  {!load} replays the journal, drops a torn final line,
    demotes [Running] jobs to [Pending] (shard part files make the
    re-run cheap) and compacts the file once to {!document}.  The
    daemon holds the only live view in memory; nothing else polls the
    file. *)

module Json = Ferrum_telemetry.Json

val kind : string
(** ["ferrum.jobs.v1"] *)

type state = Pending | Running | Done | Failed

val state_name : state -> string

type job = {
  id : int;
  spec : string;  (** submitted job spec, canonical JSON text *)
  state : state;
  digest : string;  (** manifest digest; [""] until computed *)
  cached : bool;  (** served from the run store without running *)
  error : string;  (** failure reason, [""] otherwise *)
  trace : string;
      (** the client's traceparent header at submission, [""] when
          absent — lets the runner's spans stitch under the caller's
          trace *)
  submitted : float;
      (** submission wall time ([Unix.gettimeofday]); [0.] in records
          from pre-trace queue files *)
}

(** Field list for {!Ferrum_telemetry.Metrics.validate_lines}. *)
val fields : Ferrum_telemetry.Metrics.field list

val job_to_json : job -> Json.t
val job_of_json : Json.t -> (job, string) result

(** [ferrum.jobs.v1] header with caller context appended. *)
val header : (string * Json.t) list -> Json.t

type t

(** Load (or initialise) the queue under [dir]: replay the journal
    (last record per id wins, a torn final line is dropped), demote
    [Running] jobs to [Pending], and rewrite the file atomically as
    {!document}.  The header's [jobs] count is as of this compaction;
    records appended later are not counted in it. *)
val load : dir:string -> t

val path : t -> string

(** Jobs in id (submission) order. *)
val jobs : t -> job list

val find : t -> int -> job option

(** The one-record-per-job [ferrum.jobs.v1] document (header with the
    job count, then jobs in id order) — the compacted journal and the
    daemon's GET /jobs body. *)
val document : t -> string

(** Oldest [Pending] job, if any. *)
val next_pending : t -> job option

(** Add a new job (dense ids from 1) and append its record.  [trace] is the
    client's traceparent header (default [""]); [submitted] the
    submission wall time (default [0.], meaning unknown). *)
val submit :
  ?trace:string ->
  ?submitted:float ->
  t ->
  spec:string ->
  digest:string ->
  cached:bool ->
  state:state ->
  job

(** Replace the job with the same id and append its record. *)
val update : t -> job -> unit

(** Per-job scratch directory ([<dir>/job-<id>]). *)
val job_dir : t -> int -> string
