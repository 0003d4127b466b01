(** [ferrum serve] — the campaign daemon.

    A single [Unix.select] loop multiplexing an HTTP/JSON API, one
    supervised runner child at a time, and SSE subscribers.  The loop
    pushes events to subscribers itself; there are no per-stream
    processes and no polling:

    - [POST /jobs] submits a {!Spec} (resolved through a small
      least-recently-used memo of built workloads and digested at
      submission: a run-store hit is answered [done] immediately —
      the cache hit — a miss is queued, and its runner child inherits
      the daemon's resolved workload);
    - [GET /jobs], [GET /jobs/:id], [GET /metricz] serve the
      [ferrum.jobs.v1] queue state from memory (on disk the queue is an
      append-only journal, see {!Ferrum_campaign.Queue});
    - [GET /jobs/:id/events] streams the job's live event log as
      server-sent events with [Last-Event-ID] resume.  The connection
      stays open as a non-blocking subscriber: each line the runner
      logs is pushed when its wake pipe signals it, and the stream ends
      with a [: job N <state>] comment once the job is settled.  A
      subscriber whose socket would block, or has hung up, is dropped
      and resumes by reconnecting.  The reassembled stream passes
      {!Ferrum_telemetry.Events.replay};
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

(** File recording the actually-bound port (written after listen). *)
val port_file : string -> string

(** [fork_watched child] forks a process that runs [child wr] and exits.
    The child holds [wr], the only write end of a fresh pipe, and may
    write to it to signal the parent; the returned read end reads end
    of file once the child, and any descendant that inherited the write
    end, has exited — even under SIGKILL.  The daemon selects on it:
    its runner writes a byte after each event it logs, so the daemon
    pushes events and reaps the runner at once. *)
val fork_watched : (Unix.file_descr -> unit) -> int * Unix.file_descr

(** Bind, write the port/pid files, and serve forever. *)
val serve : config -> unit
