(* Persistent campaign job queue: `ferrum.jobs.v1`.

   The serve daemon's source of truth for job state.  On disk it is an
   append-only journal: a header, then one record per transition —
   [submit] and [update] each append exactly one line, and the last
   record for an id wins.  Every request therefore costs the same
   however long the history is.  [load] replays the journal (a torn
   final line, left by a crash mid-append, is dropped), demotes
   [Running] jobs to [Pending] (their shard part files make the re-run
   cheap) and compacts the file once, atomically (Fsutil temp+rename),
   to the one-record-per-job {!document} — the same bytes the daemon
   serves as GET /jobs from memory. *)

module Json = Ferrum_telemetry.Json
module Metrics = Ferrum_telemetry.Metrics

let kind = "ferrum.jobs.v1"
let file = "jobs.jsonl"

type state = Pending | Running | Done | Failed

let state_name = function
  | Pending -> "pending"
  | Running -> "running"
  | Done -> "done"
  | Failed -> "failed"

let state_of_name = function
  | "pending" -> Some Pending
  | "running" -> Some Running
  | "done" -> Some Done
  | "failed" -> Some Failed
  | _ -> None

type job = {
  id : int;
  spec : string;  (** submitted job spec, canonical JSON text *)
  state : state;
  digest : string;  (** manifest digest; "" until computed *)
  cached : bool;  (** served from the run store without running *)
  error : string;  (** failure reason, "" otherwise *)
  trace : string;  (** client traceparent header; "" when absent *)
  submitted : float;  (** submission wall time; 0. for legacy records *)
}

let fields =
  Metrics.
    [
      field "id" F_int;
      field "state" F_string;
      field "digest" F_string;
      field "cached" F_int;
      field "error" F_string;
      field "spec" F_string;
      field ~required:false "trace" F_string;
      field ~required:false "submitted" F_float;
    ]

let job_to_json (j : job) : Json.t =
  Json.Obj
    ([
       ("id", Json.Int j.id);
       ("state", Json.Str (state_name j.state));
       ("digest", Json.Str j.digest);
       ("cached", Json.Int (if j.cached then 1 else 0));
       ("error", Json.Str j.error);
       ("spec", Json.Str j.spec);
     ]
    @ (if j.trace = "" then [] else [ ("trace", Json.Str j.trace) ])
    @
    if j.submitted = 0.0 then []
    else [ ("submitted", Json.Float j.submitted) ])

let ( let* ) = Result.bind

let job_of_json (j : Json.t) : (job, string) result =
  let* id = Json.int "id" j in
  let* state_s = Json.str "state" j in
  let* state =
    match state_of_name state_s with
    | Some s -> Ok s
    | None -> Error (Fmt.str "job: unknown state %S" state_s)
  in
  let* digest = Json.str "digest" j in
  let* cached = Json.int "cached" j in
  let* error = Json.str "error" j in
  let* spec = Json.str "spec" j in
  (* both absent from pre-trace queue files *)
  let trace =
    match Json.member "trace" j with Some (Json.Str t) -> t | _ -> ""
  in
  let submitted =
    match Json.member "submitted" j with
    | Some (Json.Float v) -> v
    | Some (Json.Int v) -> float_of_int v
    | _ -> 0.0
  in
  Ok { id; spec; state; digest; cached = cached <> 0; error; trace; submitted }

let header extra = Metrics.header ~kind extra

(* Jobs by id; ids are dense from 1 in submission order, so [by_id]
   keys [1 .. last] hold the whole queue (a gap is left only by a
   record a damaged journal lost).  [pending] is a lower bound on the
   oldest [Pending] id, so the scheduler's scan is amortized O(1). *)
type t = {
  dir : string;
  by_id : (int, job) Hashtbl.t;
  mutable last : int;
  mutable pending : int;
}

let path t = Filename.concat t.dir file
let find t id = Hashtbl.find_opt t.by_id id
let jobs t = List.filter_map (find t) (List.init t.last (fun i -> i + 1))

let next_pending t =
  let rec scan id =
    if id > t.last then None
    else
      match find t id with
      | Some j when j.state = Pending -> Some j
      | _ ->
        t.pending <- id + 1;
        scan (id + 1)
  in
  scan t.pending

(* The one-record-per-job document: the compacted journal and the
   GET /jobs body. *)
let document t =
  let jobs = jobs t in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Json.to_string (header [ ("jobs", Json.Int (List.length jobs)) ]));
  Buffer.add_char buf '\n';
  List.iter
    (fun j ->
      Buffer.add_string buf (Json.to_string (job_to_json j));
      Buffer.add_char buf '\n')
    jobs;
  Buffer.contents buf

(* Append [job]'s one journal line, then record it in memory.  The
   line goes out in a single O_APPEND write, so a crash can tear at
   most the final line, which [load] drops; a failed write raises
   before memory changes. *)
let record t (job : job) =
  let line = Json.to_string (job_to_json job) ^ "\n" in
  let fd =
    Unix.openfile (path t) [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CLOEXEC ] 0
  in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let n = Unix.write_substring fd line 0 (String.length line) in
      if n <> String.length line then
        failwith
          (Fmt.str "%s: short append (%d of %d bytes)" (path t) n
             (String.length line)));
  Hashtbl.replace t.by_id job.id job;
  t.last <- max t.last job.id;
  if job.state = Pending then t.pending <- min t.pending job.id

(* Load a queue directory: replay the journal, last record per id
   winning.  A [Running] job belonged to a daemon that died mid-run:
   demote it to [Pending] so the next scheduler pass restarts it (its
   part files resume finished shards).  The replayed state is then
   written back compacted, so the journal starts each daemon's life at
   one record per job. *)
let load ~dir =
  Fsutil.mkdir_p dir;
  let t = { dir; by_id = Hashtbl.create 64; last = 0; pending = 1 } in
  (match Fsutil.complete_lines (path t) with
  | _header :: records ->
    List.iter
      (fun line ->
        match Option.map job_of_json (Json.of_string_opt line) with
        | Some (Ok job) ->
          Hashtbl.replace t.by_id job.id
            (if job.state = Running then { job with state = Pending } else job);
          t.last <- max t.last job.id
        | Some (Error _) | None -> ())
      records
  | [] -> ());
  Fsutil.write_file (path t) (document t);
  t

(* Append a new job.  Ids are dense from 1 in submission order — stable
   across restarts because the journal is. *)
let submit ?(trace = "") ?(submitted = 0.0) t ~spec ~digest ~cached ~state =
  let job =
    { id = t.last + 1; spec; state; digest; cached; error = ""; trace;
      submitted }
  in
  record t job;
  job

let update t (job : job) = record t job

(* Per-job scratch directory (live event log, parts, spool). *)
let job_dir t id = Filename.concat t.dir (Fmt.str "job-%d" id)
