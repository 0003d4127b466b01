(** [ferrum serve] — the campaign daemon.

    A single [Unix.select] loop multiplexing an HTTP/JSON API, one
    supervised runner child at a time, and forked SSE tailer children:

    - [POST /jobs] submits a {!Spec} (resolved through a small
      least-recently-used memo of built workloads and digested at
      submission: a run-store hit is answered [done] immediately —
      the cache hit — a miss is queued, and its runner child inherits
      the daemon's resolved workload);
    - [GET /jobs], [GET /jobs/:id], [GET /metricz] serve the
      [ferrum.jobs.v1] queue state;
    - [GET /jobs/:id/events] streams the job's live event log as
      server-sent events with [Last-Event-ID] resume; the reassembled
      stream passes {!Ferrum_telemetry.Events.replay};
    - [GET /runs] and [GET /runs/:digest/...] serve the
      content-addressed run store ([ferrum.run.v1]);
    - [GET /] and [GET /history] serve the cross-run history page.

    Every JSON body is one of the repo's schema-versioned JSONL forms,
    so [ferrum metrics] can validate anything the server emits. *)

type config = {
  root : string;  (** daemon state directory (queue/, store/, port, pid) *)
  host : string;
  port : int;  (** 0 auto-assigns; the bound port is written to [port] *)
}

val queue_dir : string -> string
val store_root : string -> string

(** File recording the actually-bound port (written after listen). *)
val port_file : string -> string

val pid_file : string -> string

(** Live event log name inside a job directory. *)
val live_events_file : string

(** [fork_watched child] forks a process that runs [child] and exits.
    The child holds the only write end of a fresh pipe; the returned
    read end turns readable (end of file) once the child, and any
    descendant that inherited the write end, has exited — even under
    SIGKILL.  The daemon selects on it to reap its runner at once. *)
val fork_watched : (unit -> unit) -> int * Unix.file_descr

(** Bind, write the port/pid files, and serve forever. *)
val serve : config -> unit
