(* Sharded campaign execution on a pool of persistent forked workers.

   Each target has a pool of workers, forked on first use and kept
   until the target is collected or the process exits.  A worker runs
   one shard (a contiguous global-sample range) per command and streams
   a line protocol back over its pipe: typed events, per-sample outputs,
   then an explicit done marker, after which it waits for the next
   command.  The parent multiplexes the busy workers' pipes with
   Unix.select, detects worker death (end of file before the done
   marker), kills, reaps and replaces a worker that dies or garbles its
   stream, retries the shard, then merges shard outputs in global sample
   order — which, with index-keyed per-sample RNG, makes the merged
   result byte-identical for any shard count.

   Command (parent -> worker, one per shard): a {!command} record,
   marshalled (both ends are the same forked executable): global shard
   id, attempt, range, seed, fault width, traced flag, the heartbeat's
   base_spent/budget/prior, the shard span's trace context, the
   sabotage hook's die_after, and the adaptive allocation of the range.
   A worker reads end of file when its pool closes, and exits.

   Wire protocol (worker -> parent): one line each, a one-letter tag, a
   tab, then the payload:
     s<TAB>...<TAB>{record}  a sample (Shard.write_sample): the fields
                             the merge needs, tab-separated, then the
                             record JSON verbatim, rendered once in the
                             worker and never re-escaped or parsed
     e<TAB>{...}             a Ferrum_telemetry.Events event
     t<TAB>{...}             a ferrum.trace.v1 span row, verbatim
     w<TAB>{...}             a ferrum.trace.v1 wall row, verbatim
     d<TAB>                  clean end of the shard's stream
   An unknown tag, a sample whose fields do not read back (a truncated
   line, a misplaced separator, a record of another sample), an event
   that does not parse, a row that is not a whole object, a sample out
   of order and any data after the done marker are protocol errors: the
   worker is killed, reaped and replaced, and the attempt retried.  The
   parent cuts each line once, straight from its read buffer, carrying
   only a partial trailing line between reads.  The test hooks act in
   the parent: [sabotage]'s verdict travels in the command as
   die_after, and [garble] rewrites the attempt's k-th sample line
   before it is absorbed.

   Trace rows are emitted in one batch after the shard's last sample
   (a worker that dies or garbles mid-shard contributes none), so the
   stitched campaign trace — like the canonical event log — contains
   only successful attempts and stays byte-reproducible per seed.  A
   worker resets its engine-phase tallies at each command, so a reused
   worker's rows are a fresh one's.

   With a [part_dir], each absorbed line is also streamed verbatim to
   [part_dir]/shard-<i>.jsonl.tmp, renamed to shard-<i>.jsonl when the
   attempt succeeds and removed when it fails, so an interrupted
   campaign resumes by replaying finished shards from disk and the
   parent holds no second copy of a shard's lines.

   A campaign runs in rounds (one, unless [run ~policy] asks for
   more), one wave of shards each: round r's shard s runs under the
   global shard id r*K + s, so part files, the event log and progress
   aggregation need no notion of rounds — each round-shard owns a
   unique id and a unique global sample range.  Rounds are barriers:
   round r's allocation is a pure function of the merged statistics of
   rounds < r, which is what keeps campaigns byte-reproducible for any
   shard count.

   Live stream vs canonical log: [on_event] observes events as they
   arrive, including heartbeats from attempts that later die (each such
   attempt is closed off by a Shard_retry marker).  Aggregating live
   consumers should key on (shard, attempt) or on shard id with
   last-write-wins, as the progress renderer does; the [result]'s
   canonical log contains only each shard's successful attempt. *)

module F = Ferrum_faultsim.Faultsim
module Events = Ferrum_telemetry.Events
module Json = Ferrum_telemetry.Json
module Stats = Ferrum_telemetry.Stats
module Trace = Ferrum_telemetry.Trace

type mode = Inject | Traced

(* The stats document's input: each sample's static site and SDC bit,
   packed as [2 * site + sdc] in global order, and the round
   boundaries as cumulative sample counts. *)
type stats_src = { st_budget : int; st_round_ends : int list; st_samples : int array }

type result = {
  counts : F.counts;
  record_lines : string list;  (** global sample order *)
  vulnmap : F.vulnmap option;  (** [Traced] mode only *)
  clock : int;  (** logical clock: summed injected-run steps *)
  events : Events.t list;  (** canonical merged log, seq 0.. *)
  retried : int;  (** worker deaths recovered by retry *)
  stats_src : stats_src;  (** what {!stats_lines} folds *)
  trace_spans : string list;  (** ferrum.trace.v1 span rows, deterministic *)
  trace_walls : string list;  (** wall sidecar rows (non-deterministic) *)
}

let tally_of_counts (c : F.counts) : Events.tally =
  {
    Events.benign = c.F.benign;
    sdc = c.F.sdc;
    detected = c.F.detected;
    crash = c.F.crash;
    timeout = c.F.timeout;
  }

(* ------------------------------------------------------------------ *)
(* Adaptive sample allocation.                                         *)
(* ------------------------------------------------------------------ *)

(* How an adaptive campaign splits its budget: [rounds] near-equal
   contiguous slices (laid out as {!Shard.plan} lays out shards), each
   allocated from the statistics of everything before it;
   [target_ci] > 0 stops early (at round granularity) once every
   candidate site's Wilson half-width is at or under the target. *)
type policy = { rounds : int; target_ci : float }

(* Allocate [n] samples over the candidate sites, in proportion to the
   Wilson half-widths of their SDC tallies so far ([tally site]; an
   unsampled site has half-width 0.5, maximal pull).  Largest-remainder
   apportionment with ties broken by lower static index; the result
   lists sites ascending with multiplicity, so the mapping from a
   round-local sample index to its site is a pure function of the
   merged prior statistics — byte-reproducible for any shard count. *)
let allocate (t : F.target) ~tally ~n : int array =
  let sites = F.site_candidates t in
  let m = Array.length sites in
  let w =
    Array.map
      (fun site -> Stats.half_width (Stats.wilson (tally site : Stats.tally)))
      sites
  in
  let total = Array.fold_left ( +. ) 0.0 w in
  let quota = Array.map (fun wi -> float_of_int n *. wi /. total) w in
  let base = Array.map (fun q -> int_of_float (Float.floor q)) quota in
  let rem = max 0 (n - Array.fold_left ( + ) 0 base) in
  let order = Array.init m (fun i -> i) in
  Array.sort
    (fun a b ->
      let fa = quota.(a) -. Float.floor quota.(a)
      and fb = quota.(b) -. Float.floor quota.(b) in
      if fa = fb then compare a b else compare fb fa)
    order;
  for j = 0 to rem - 1 do
    let i = order.(j mod m) in
    base.(i) <- base.(i) + 1
  done;
  let out = Array.make n (-1) in
  let pos = ref 0 in
  Array.iteri
    (fun i site ->
      for _ = 1 to base.(i) do
        out.(!pos) <- site;
        incr pos
      done)
    sites;
  assert (!pos = n);
  out

(* ------------------------------------------------------------------ *)
(* Worker side.                                                        *)
(* ------------------------------------------------------------------ *)

(* Progress events per shard. *)
let heartbeats = 8

(* A class's counter in a worker's running tally. *)
let class_slot = function
  | F.Benign -> 0
  | F.Sdc -> 1
  | F.Detected -> 2
  | F.Crash -> 3
  | F.Timeout -> 4

(* One shard's orders, sent by the parent to an idle worker.
   [c_base_spent]/[c_budget]/[c_prior] parameterize the confidence
   heartbeat: the global samples completed before this shard's range
   began, the whole campaign's sample budget, and the SDC tally of those
   completed samples — so Progress events carry budget-denominated
   progress and a live Wilson half-width that already includes prior
   rounds.  [c_assign] is the adaptive allocation of [c_range], its
   first sample first. *)
type command = {
  c_shard : int;  (** global shard id *)
  c_attempt : int;
  c_range : Shard.range;
  c_seed : int64;
  c_fault_bits : int;
  c_traced : bool;
  c_base_spent : int;
  c_budget : int;
  c_prior : Stats.tally;
  c_ctx : Trace.ctx;  (** the shard span's pre-minted context *)
  c_die_after : int option;  (** the sabotage hook's verdict *)
  c_assign : int array option;
}

(* Run one command's shard in a worker, writing its wire lines to [oc]
   and ending with the done marker.  The worker's span recorder
   continues the context the parent minted from the global shard id,
   so ids are collision-free across the pool without coordination.
   Rows ship back over the pipe in one batch before the done marker — a
   dead attempt contributes nothing, keeping the stitched trace
   deterministic under retries. *)
let run_command target oc c =
  let { Shard.lo; hi } = c.c_range in
  let emit tag row =
    output_char oc tag;
    output_char oc '\t';
    output_string oc row;
    output_char oc '\n'
  in
  (* Events go out as they happen, so the runner, the live log and its
     subscribers see a shard start and progress while it runs; sample
     lines ride along in the channel buffer. *)
  let emit_event body =
    emit 'e'
      (Json.to_string
         (Events.to_json
            { Events.seq = 0; shard = c.c_shard; attempt = c.c_attempt;
              body }));
    flush oc
  in
  let tr = Trace.scoped c.c_ctx ~proc:(Fmt.str "worker-%d" c.c_shard) in
  F.reset_phases target;
  let total = hi - lo in
  let every = max 1 (total / heartbeats) in
  let assign = Option.map (fun a sample -> a.(sample - lo)) c.c_assign in
  Trace.span tr "shard" (fun () ->
      emit_event (Events.Shard_started { lo; hi });
      let done_ = ref 0 and clock = ref 0 in
      (* per-class sample counts, in {!class_slot} order *)
      let by_class = Array.make 5 0 in
      let tally () =
        {
          Events.benign = by_class.(0);
          sdc = by_class.(1);
          detected = by_class.(2);
          crash = by_class.(3);
          timeout = by_class.(4);
        }
      in
      Shard.run_range ~fault_bits:c.c_fault_bits ?assign ~traced:c.c_traced
        ~seed:c.c_seed target c.c_range
        ~on_sample:(fun cls ~steps text pos len ->
          (match c.c_die_after with
          | Some k when !done_ >= k ->
            flush oc;
            Unix._exit 66
          | _ -> ());
          output_string oc "s\t";
          output oc text pos len;
          output_char oc '\n';
          incr done_;
          clock := !clock + steps;
          Trace.advance tr steps;
          let k = class_slot cls in
          by_class.(k) <- by_class.(k) + 1;
          if !done_ mod every = 0 && !done_ < total then begin
            let seen =
              Stats.merge c.c_prior { Stats.n = !done_; k = by_class.(1) }
            in
            emit_event
              (Events.Progress
                 {
                   done_ = !done_;
                   total;
                   tally = tally ();
                   clock = !clock;
                   spent = c.c_base_spent + !done_;
                   budget = c.c_budget;
                   hw = Stats.half_width (Stats.wilson seen);
                 })
          end);
      (* Engine-phase breakdown of this shard's work, as one span of
         deterministic counters (golden walk, checkpoint restores,
         prefix replay and its fused part, post-flip suffixes, predecode
         activity, golden convergence, re-traced SDCs and the steps
         run under the lockstep tracer). *)
      Trace.span tr "engine" (fun () ->
          let ph = F.phases target in
          Trace.counter tr "walks" ph.F.ph_walks;
          Trace.counter tr "walk_steps" ph.F.ph_walk_steps;
          Trace.counter tr "restores" ph.F.ph_restores;
          Trace.counter tr "prefix_steps" ph.F.ph_prefix_steps;
          Trace.counter tr "forward_steps" ph.F.ph_forward_steps;
          Trace.counter tr "suffix_steps" ph.F.ph_suffix_steps;
          Trace.counter tr "decodes" ph.F.ph_decodes;
          Trace.counter tr "fused_steps" ph.F.ph_fused_steps;
          Trace.counter tr "converged" ph.F.ph_converged;
          Trace.counter tr "skipped_steps" ph.F.ph_skipped_steps;
          Trace.counter tr "retraces" ph.F.ph_retraces;
          Trace.counter tr "lockstep_steps" ph.F.ph_lockstep_steps);
      Trace.counter tr "samples" !done_;
      emit_event
        (Events.Shard_finished
           { done_ = !done_; total; tally = tally (); clock = !clock }));
  List.iter (emit 't') (Trace.span_lines tr);
  List.iter (emit 'w') (Trace.wall_lines tr);
  output_string oc "d\t\n";
  flush oc

(* A worker's life, in the forked child: run commands until the parent
   closes the command pipe, then exit.  Never returns.  Exits with
   Unix._exit so no parent at_exit handler (test runners, sinks, the
   pools' own) fires twice. *)
let worker_main target cmd out =
  let ic = Unix.in_channel_of_descr cmd
  and oc = Unix.out_channel_of_descr out in
  try
    while true do
      run_command target oc (Marshal.from_channel ic : command)
    done;
    Unix._exit 0
  with
  | End_of_file -> Unix._exit 0
  | _ ->
    (try flush oc with _ -> ());
    Unix._exit 70

(* ------------------------------------------------------------------ *)
(* Worker pools.                                                       *)
(* ------------------------------------------------------------------ *)

type worker = {
  w_pid : int;
  w_cmd : Unix.file_descr;  (** parent -> worker commands *)
  w_out : Unix.file_descr;  (** worker -> parent wire *)
  mutable w_alive : bool;  (** not yet retired: its pipe ends are open *)
  mutable w_idle : bool;
  mutable w_served : int;  (** shards finished, done marker and all *)
}

(* The persistent workers of one target.  The key is weak, so a pool
   never keeps its target alive. *)
type pool = {
  p_key : F.target Weak.t;
  p_owner : int;  (** the process that forked the workers *)
  mutable p_workers : worker list;
}

(* This process's pools, most recently used first.  A forked child
   inherits the list; the pools in it that it did not create are
   foreign there. *)
let pools : pool list ref = ref []

(* Idle workers are cheap but not free (a process and the pages it has
   copied), and a process may hold many targets at once (the traced
   benchmark and the report tables hold the whole catalogue, 32), so at
   most this many targets keep theirs. *)
let max_pools = 8

let rec reap pid =
  match Unix.waitpid [] pid with
  | _, status -> status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap pid
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> Unix.WSIGNALED Sys.sigkill

(* Retire [w]: close this process's ends of its pipes and, when [kill],
   kill and reap it; returns how it ended.  Idempotent, and safe to
   run from a finaliser: [w_alive] is tested and cleared with no
   allocation in between, so no finaliser can run between the two and
   retire [w] a second time. *)
let retire ?(kill = true) w =
  if not w.w_alive then Unix.WSIGNALED Sys.sigkill
  else begin
    w.w_alive <- false;
    w.w_idle <- false;
    (try Unix.close w.w_cmd with Unix.Unix_error _ -> ());
    (try Unix.close w.w_out with Unix.Unix_error _ -> ());
    if kill then begin
      (try Unix.kill w.w_pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap w.w_pid
    end
    else Unix.WSIGNALED Sys.sigkill
  end

(* Close [p]: the process that forked its workers kills and reaps them;
   any other only drops its inherited copies of their pipe ends. *)
let close_pool p =
  let kill = p.p_owner = Unix.getpid () in
  List.iter (fun w -> ignore (retire ~kill w : Unix.process_status)) p.p_workers;
  p.p_workers <- []

let () = at_exit (fun () -> List.iter close_pool !pools)

(* [target]'s pool, made the most recently used.  A new pool closes
   when its target is collected.  Pools that are foreign or fall past
   [max_pools] close here. *)
let pool_for (target : F.target) =
  let me = Unix.getpid () in
  let mine p =
    match Weak.get p.p_key 0 with Some t -> t == target | None -> false
  in
  let live, dead =
    List.partition (fun p -> p.p_owner = me && Weak.check p.p_key 0) !pools
  in
  List.iter close_pool dead;
  let p =
    match List.find_opt mine live with
    | Some p -> p
    | None ->
      let p_key = Weak.create 1 in
      Weak.set p_key 0 (Some target);
      let p = { p_key; p_owner = me; p_workers = [] } in
      Gc.finalise_last (fun () -> close_pool p) target;
      p
  in
  let rest = List.filter (fun q -> q != p) live in
  List.iteri (fun i q -> if i >= max_pools - 1 then close_pool q) rest;
  pools := p :: List.filteri (fun i _ -> i < max_pools - 1) rest;
  p

let worker_pids (target : F.target) =
  let me = Unix.getpid () in
  List.concat_map
    (fun p ->
      match Weak.get p.p_key 0 with
      | Some t when t == target && p.p_owner = me ->
        List.rev_map (fun w -> w.w_pid) p.p_workers
      | _ -> [])
    !pools

(* Fork a worker for [p].  The child first drops every parent-side
   pipe end it inherited, of every pool: a worker holding another's
   command pipe would keep that worker from reading end of file when
   the runner dies without closing its pools. *)
let spawn_worker p target =
  let cmd_r, cmd_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    Unix.close cmd_w;
    Unix.close out_r;
    (* every pool is foreign here *)
    List.iter close_pool !pools;
    worker_main target cmd_r out_w
  | pid ->
    Unix.close cmd_r;
    Unix.close out_w;
    let w =
      { w_pid = pid; w_cmd = cmd_w; w_out = out_r; w_alive = true;
        w_idle = true; w_served = 0 }
    in
    p.p_workers <- w :: p.p_workers;
    w

(* Send [c] to [w]; [false] when the worker is gone.  SIGPIPE is
   ignored for the write, so a dead worker's pipe answers EPIPE instead
   of killing the runner. *)
let send w (c : command) =
  let b = Marshal.to_bytes c [] in
  let old = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect
    ~finally:(fun () -> Sys.set_signal Sys.sigpipe old)
    (fun () ->
      let rec go off =
        off = Bytes.length b
        ||
        match Unix.write w.w_cmd b off (Bytes.length b - off) with
        | n -> go (off + n)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
        | exception Unix.Unix_error (Unix.EPIPE, _, _) -> false
      in
      go 0)

(* ------------------------------------------------------------------ *)
(* Parent side.                                                        *)
(* ------------------------------------------------------------------ *)

(* A shard's stream as read so far, from a live worker's pipe or from a
   saved part file: both go through {!absorb_line}, so a replayed part
   is accepted exactly when the attempt that wrote it was. *)
type stream = {
  mutable s_events : Events.t list;  (** reversed *)
  mutable s_samples : Shard.sample_out list;  (** reversed *)
  mutable s_tr : string list;  (** span rows, reversed *)
  mutable s_tw : string list;  (** wall rows, reversed *)
  mutable s_next : int;  (** the sample expected next *)
  mutable s_done : bool;
}

let empty_stream (range : Shard.range) =
  { s_events = []; s_samples = []; s_tr = []; s_tw = [];
    s_next = range.Shard.lo; s_done = false }

(* Apply the [len]-byte wire line at [pos] of [buf] to [s], cutting its
   payload out once; an event is also returned, for the caller to fire.
   A line that does not parse, a sample out of order and any line after
   the done marker are protocol errors. *)
let absorb_line s buf pos len : (Events.t option, string) Stdlib.result =
  if s.s_done then Error "worker line after the done marker"
  else if len < 2 || Bytes.get buf (pos + 1) <> '\t' then
    Error "worker line lacks a tag"
  else
    let payload () = Bytes.sub_string buf (pos + 2) (len - 2) in
    match Bytes.get buf pos with
    | 's' -> (
      match Shard.read_sample (payload ()) with
      | Error e -> Error e
      | Ok x when x.Shard.o_sample <> s.s_next ->
        Error (Fmt.str "sample %d where %d was due" x.Shard.o_sample s.s_next)
      | Ok x ->
        s.s_samples <- x :: s.s_samples;
        s.s_next <- s.s_next + 1;
        Ok None)
    | 'e' -> (
      match Option.map Events.of_json (Json.of_string_opt (payload ())) with
      | None -> Error "event line is not JSON"
      | Some (Error e) -> Error e
      | Some (Ok e) ->
        s.s_events <- e :: s.s_events;
        Ok (Some e))
    | ('t' | 'w') as tag ->
      let row = payload () and n = len - 2 in
      if n < 2 || row.[0] <> '{' || row.[n - 1] <> '}' then
        Error "trace row is not a whole object"
      else begin
        if tag = 't' then s.s_tr <- row :: s.s_tr else s.s_tw <- row :: s.s_tw;
        Ok None
      end
    | 'd' when len = 2 ->
      s.s_done <- true;
      Ok None
    | 'd' -> Error "done marker with a payload"
    | c -> Error (Fmt.str "worker line with unknown tag %C" c)

(* Hand each newline-ended line among the first [stop] bytes of [buf] to
   [f buf pos len] while [f] accepts them; returns where the unread rest
   begins, or -1 once [f] has refused a line. *)
let each_line f buf stop =
  let rec go pos i =
    if i >= stop then pos
    else if Bytes.unsafe_get buf i <> '\n' then go pos (i + 1)
    else if f buf pos (i - pos) then go (i + 1) (i + 1)
    else -1
  in
  go 0 0

(* Whether [s] is complete for [range]: ended by the done marker after
   exactly the samples [lo, hi), in order. *)
let complete (range : Shard.range) s = s.s_done && s.s_next = range.Shard.hi

(* One attempt at a shard, on a worker. *)
type running = {
  r_index : int;  (** index into this wave's range array *)
  r_cmd : command;
  r_worker : worker;
  r_stream : stream;
  r_part : (out_channel * string) option;
      (** the part file's path and the channel streaming its [.tmp] *)
  r_garble : (int * (string -> string)) option;
  mutable r_buf : Bytes.t;
      (** read buffer: a partial trailing line, then the next read *)
  mutable r_len : int;  (** bytes of the partial line at its front *)
  mutable r_seen : int;  (** sample lines read, before any garbling *)
  mutable r_fail : string option;
      (** protocol violation on this attempt's stream; treated like
          worker death (kill, reap, retry) *)
}

let part_path dir shard = Filename.concat dir (Fmt.str "shard-%d.jsonl" shard)

(* Replay a saved part stream; [None] unless every line is absorbed and
   the stream is {!complete} for [range]. *)
let load_part (range : Shard.range) path : stream option =
  if not (Sys.file_exists path) then None
  else begin
    let text = Bytes.unsafe_of_string (Fsutil.read_file path) in
    let s = empty_stream range in
    let absorb buf pos len = Result.is_ok (absorb_line s buf pos len) in
    if each_line absorb text (Bytes.length text) = Bytes.length text
       && complete range s
    then Some s
    else None
  end

(* Start streaming an attempt's part file, or end it: kept (renamed
   into place) when the attempt succeeded, removed otherwise. *)
let open_part dir shard =
  let path = part_path dir shard in
  (open_out_bin (path ^ ".tmp"), path)

let close_part ~keep = function
  | None -> ()
  | Some (oc, path) ->
    if keep then begin
      close_out oc;
      Sys.rename (path ^ ".tmp") path
    end
    else begin
      close_out_noerr oc;
      try Sys.remove (path ^ ".tmp") with Sys_error _ -> ()
    end

let status_reason status ~got ~total =
  match status with
  | Unix.WEXITED c -> Fmt.str "worker exited %d after %d/%d samples" c got total
  | Unix.WSIGNALED s ->
    Fmt.str "worker killed by signal %d after %d/%d samples" s got total
  | Unix.WSTOPPED s ->
    Fmt.str "worker stopped by signal %d after %d/%d samples" s got total

let rec select_read fds =
  match Unix.select fds [] [] (-1.0) with
  | ready, _, _ -> ready
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> select_read fds

(* One wave of shard execution: dispatch, multiplex, retry and persist
   a set of shards on [pool]'s workers, where wave-local index i runs
   range [ranges.(i)] under global shard id [ids.(i)] (r*K + s in round
   r).  [alloc] is the round's adaptive allocation, indexed from the
   round's first sample [alloc_lo].  Returns the per-shard successful
   streams, the per-shard retry markers (chronological) and the retry
   count. *)
let run_wave ~fault_bits ~traced ~retries ~workers ~fire ~part_dir ~sabotage
    ~garble ~seed ~alloc ~alloc_lo ~base_spent ~budget ~prior ~tracer ~pool
    target (ids : int array) (ranges : Shard.range array) :
    stream array * Events.t list array * int =
  let k = Array.length ranges in
  (* Resume: replay finished shards from their part files. *)
  let completed : stream option array = Array.make k None in
  (match part_dir with
  | Some dir ->
    Array.iteri
      (fun i range -> completed.(i) <- load_part range (part_path dir ids.(i)))
      ranges
  | None -> ());
  Array.iter
    (function
      | Some s -> List.iter fire (List.rev s.s_events)
      | None -> ())
    completed;
  let retry_markers : Events.t list array = Array.make k [] (* reversed *) in
  let retried = ref 0 in
  let running : running list ref = ref [] in
  let drop w =
    let status = retire w in
    pool.p_workers <- List.filter (fun x -> x.w_alive) pool.p_workers;
    status
  in
  let command i attempt =
    let shard = ids.(i) and range = ranges.(i) in
    {
      c_shard = shard;
      c_attempt = attempt;
      c_range = range;
      c_seed = seed;
      c_fault_bits = fault_bits;
      c_traced = traced;
      c_base_spent = base_spent;
      c_budget = budget;
      c_prior = prior;
      (* keyed on the global shard id alone: a retried attempt re-mints
         the identical context, so the eventual successful attempt's
         span ids do not depend on how many attempts preceded it *)
      c_ctx = Trace.ctx_for tracer ~seg:(Fmt.str "s%d" shard);
      c_die_after = Option.bind sabotage (fun f -> f ~shard ~attempt);
      c_assign =
        Option.map
          (fun a ->
            Array.sub a (range.Shard.lo - alloc_lo) (Shard.range_samples range))
          alloc;
    }
  in
  (* Hand [c] to an idle worker, or to a new one.  A reused worker that
     turns out dead (it died idle) is replaced silently: it took no part
     in this campaign. *)
  let rec dispatch i (c : command) =
    let w =
      match List.find_opt (fun w -> w.w_idle) pool.p_workers with
      | Some w -> w
      | None -> spawn_worker pool target
    in
    w.w_idle <- false;
    if send w c || w.w_served = 0 then
      running :=
        {
          r_index = i;
          r_cmd = c;
          r_worker = w;
          r_stream = empty_stream ranges.(i);
          r_part = Option.map (fun dir -> open_part dir c.c_shard) part_dir;
          r_garble =
            Option.bind garble (fun f -> f ~shard:c.c_shard ~attempt:c.c_attempt);
          r_buf = Bytes.create 65536;
          r_len = 0;
          r_seen = 0;
          r_fail = None;
        }
        :: !running
    else begin
      ignore (drop w : Unix.process_status);
      dispatch i c
    end
  in
  (* Absorb the complete lines among the first [stop] bytes of [r]'s
     buffer, each cut from it once and streamed to the part file, then
     carry the partial trailing line to the front.  The garble hook
     rewrites the attempt's k-th sample line first ("" drops it).  A
     line that fails poisons the attempt: stop consuming, and let the
     caller route the worker through the ordinary death/retry path.
     Never raise from inside the select loop — that would leak busy
     workers. *)
  let feed r stop =
    let absorb buf pos len =
      match absorb_line r.r_stream buf pos len with
      | Ok e ->
        Option.iter fire e;
        Option.iter
          (fun (oc, _) ->
            output oc buf pos len;
            output_char oc '\n')
          r.r_part;
        true
      | Error e ->
        r.r_fail <- Some e;
        false
    in
    let line buf pos len =
      let sample =
        len > 1 && Bytes.get buf pos = 's' && Bytes.get buf (pos + 1) = '\t'
      in
      if sample then r.r_seen <- r.r_seen + 1;
      match r.r_garble with
      | Some (g, f) when sample && r.r_seen - 1 = g ->
        let text = f (Bytes.sub_string buf pos len) in
        text = ""
        || each_line absorb (Bytes.of_string (text ^ "\n"))
             (String.length text + 1)
           >= 0
      | _ -> absorb buf pos len
    in
    let rest = each_line line r.r_buf stop in
    if rest >= 0 then begin
      r.r_len <- stop - rest;
      Bytes.blit r.r_buf rest r.r_buf 0 r.r_len
    end
  in
  (* Kill and reap every busy worker; used before the campaign
     propagates a failure so no worker is left mid-shard. *)
  let reap_all () =
    List.iter
      (fun r ->
        close_part ~keep:false r.r_part;
        ignore (drop r.r_worker : Unix.process_status))
      !running;
    running := []
  in
  (* The attempt [r] delivered its shard whole: its worker is idle
     again, and its part file is in place. *)
  let succeed r =
    running := List.filter (fun x -> x != r) !running;
    r.r_worker.w_idle <- true;
    r.r_worker.w_served <- r.r_worker.w_served + 1;
    completed.(r.r_index) <- Some r.r_stream;
    close_part ~keep:true r.r_part
  in
  (* The attempt [r]'s worker died or garbled its stream, and has been
     reaped: [status] is how it ended. *)
  let fail r status =
    running := List.filter (fun x -> x != r) !running;
    close_part ~keep:false r.r_part;
    if r.r_fail = None && r.r_stream.s_events = [] && r.r_worker.w_served > 0
    then
      (* a reused worker that died before its first line (always an
         event) never started the shard: it died idle *)
      dispatch r.r_index r.r_cmd
    else begin
      let range = ranges.(r.r_index) in
      let total = Shard.range_samples range in
      let got = r.r_stream.s_next - range.Shard.lo in
      let reason =
        match r.r_fail with
        | Some e -> Fmt.str "protocol error after %d/%d samples: %s" got total e
        | None -> status_reason status ~got ~total
      in
      let shard = r.r_cmd.c_shard and attempt = r.r_cmd.c_attempt in
      let marker =
        { Events.seq = 0; shard; attempt; body = Events.Shard_retry { reason } }
      in
      fire marker;
      retry_markers.(r.r_index) <- marker :: retry_markers.(r.r_index);
      incr retried;
      if attempt + 1 > retries then begin
        reap_all ();
        failwith
          (Fmt.str "campaign shard %d failed after %d attempts: %s" shard
             (attempt + 1) reason)
      end
      else dispatch r.r_index (command r.r_index (attempt + 1))
    end
  in
  let next = ref 0 in
  let loop () =
    while !next < k || !running <> [] do
      while
        !next < k
        && (completed.(!next) <> None || List.length !running < workers)
      do
        let i = !next in
        incr next;
        if completed.(i) = None then dispatch i (command i 0)
      done;
      if !running <> [] then begin
        let ready = select_read (List.map (fun r -> r.r_worker.w_out) !running) in
        List.iter
          (fun fd ->
            match List.find_opt (fun r -> r.r_worker.w_out = fd) !running with
            | None -> ()
            | Some r -> (
              if r.r_len = Bytes.length r.r_buf then
                r.r_buf <- Bytes.extend r.r_buf 0 r.r_len;
              let room = Bytes.length r.r_buf - r.r_len in
              match Unix.read fd r.r_buf r.r_len room with
              | 0 -> fail r (drop r.r_worker)
              | n ->
                feed r (r.r_len + n);
                if r.r_fail = None && r.r_stream.s_done then begin
                  if not (complete ranges.(r.r_index) r.r_stream) then
                    r.r_fail <- Some "done marker before the shard's last sample"
                  else if r.r_len > 0 then
                    r.r_fail <- Some "worker data after the done marker"
                  else succeed r
                end;
                if r.r_fail <> None then fail r (drop r.r_worker)
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()))
          ready
      end
    done
  in
  (try loop ()
   with e ->
     reap_all ();
     raise e);
  let streams =
    Array.map
      (function Some s -> s | None -> assert false (* loop invariant *))
      completed
  in
  (* Stitch worker rows into the parent recorder in shard-id order —
     completion order is racy, absorption order is not — and advance
     the parent's logical clock past the wave's work so later spans
     start after every child span they follow. *)
  Array.iter
    (fun s ->
      Trace.absorb tracer ~span_lines:(List.rev s.s_tr)
        ~wall_lines:(List.rev s.s_tw))
    streams;
  Trace.advance tracer
    (Array.fold_left
       (fun acc s ->
         List.fold_left (fun a (o : Shard.sample_out) -> a + o.Shard.o_steps)
           acc s.s_samples)
       0 streams);
  (streams, Array.map List.rev retry_markers, !retried)

(* ------------------------------------------------------------------ *)
(* Merging.                                                            *)
(* ------------------------------------------------------------------ *)

(* Merge in global sample order: shard (and round) ranges are
   contiguous and ascending, so processing order is sample order, and
   the traced fold runs the float summation in that one order whatever
   the shard count. *)
let merge_samples ~mode target (all_samples : Shard.sample_out list) =
  let record_lines = List.map (fun s -> s.Shard.o_record) all_samples in
  let clock =
    List.fold_left (fun acc s -> acc + s.Shard.o_steps) 0 all_samples
  in
  let counts, vulnmap =
    match mode with
    | Inject ->
      ( List.fold_left
          (fun c s -> F.add_count c s.Shard.o_class)
          F.zero_counts all_samples,
        None )
    | Traced ->
      let b = F.vulnmap_builder target in
      List.iter
        (fun (s : Shard.sample_out) ->
          F.vulnmap_add b ~sample:s.o_sample ~static_index:s.o_static
            s.o_class ~latency:s.o_latency ~escape:s.o_escape)
        all_samples;
      let v = F.vulnmap_build b in
      (v.F.v_counts, Some v)
  in
  (record_lines, clock, counts, vulnmap)

(* The stats document's input, packed from the merged samples in
   global order. *)
let stats_src ~budget ~round_ends (all_samples : Shard.sample_out list) =
  {
    st_budget = budget;
    st_round_ends = round_ends;
    st_samples =
      Array.of_list
        (List.map
           (fun (o : Shard.sample_out) ->
             (2 * o.Shard.o_static) + if o.Shard.o_class = F.Sdc then 1 else 0)
           all_samples);
  }

(* The ferrum.stats.v1 document of a campaign: fold every sample in
   global order through a convergence stream, closing a round at each
   boundary. *)
let stats_lines r =
  let { st_budget; st_round_ends; st_samples } = r.stats_src in
  let s = Stats.create ~budget:st_budget () in
  Array.iter
    (fun v ->
      Stats.observe s ~site:(v asr 1) ~sdc:(v land 1 = 1);
      if List.mem (Stats.spent s) st_round_ends then Stats.round_end s)
    st_samples;
  Stats.lines s

(* A campaign-level event (no shard). *)
let campaign_event body = { Events.seq = 0; shard = -1; attempt = 0; body }

(* Canonical log: campaign start, then per shard (global id order) its
   retry markers followed by the successful attempt's events, then
   campaign finish — renumbered into one contiguous sequence. *)
let canonical_log ~start ~finished body =
  List.mapi
    (fun i e -> { e with Events.seq = i })
    ((start :: body) @ [ finished ])

let wave_body (streams : stream array) (markers : Events.t list array) =
  List.concat
    (List.init (Array.length streams) (fun i ->
         markers.(i) @ List.rev streams.(i).s_events))

(* ------------------------------------------------------------------ *)
(* Running a campaign.                                                 *)
(* ------------------------------------------------------------------ *)

(* The campaign tracer: continue a caller-provided context (daemon job
   span), or root a fresh trace whose id is derived from the campaign
   parameters — so a campaign traces unconditionally and trace.jsonl is
   a total artifact like the event log. *)
let make_tracer ?trace_ctx ~seed ~samples ~shards () =
  match trace_ctx with
  | Some ctx -> Trace.scoped ctx ~proc:"runner"
  | None ->
    Trace.create
      ~trace:(Trace.derive_id ~seed (Fmt.str "campaign:%d:%d" samples shards))
      ~proc:"runner" ()

(* Every campaign runs here.  The budget is split into [policy.rounds]
   rounds, round r's samples allocated from the merged per-site
   statistics of rounds < r via {!allocate}; a flat campaign ([policy]
   absent) is the one-round case, so it writes exactly what a one-round
   adaptive run writes.  Rounds are barriers over contiguous global
   index blocks and the allocation is a pure function of merged prior
   output, so every record is byte-identical for any shard count, and a
   resumed run (same part_dir) recomputes the same allocations from its
   part files. *)
let run ?(fault_bits = 1) ?(retries = 2) ?workers ?on_event ?part_dir
    ?sabotage ?garble ?policy ?trace_ctx ~mode ~shards ~seed ~samples
    (target : F.target) : result =
  if samples <= 0 then invalid_arg "Runner.run: samples must be positive";
  if target.F.eligible_steps = 0 then
    invalid_arg "Runner.run: no eligible injection sites";
  let { rounds; target_ci } =
    Option.value policy ~default:{ rounds = 1; target_ci = 0.0 }
  in
  let rounds = Shard.plan ~shards:rounds ~samples in
  let fire = match on_event with Some f -> f | None -> ignore in
  let pool = pool_for target in
  let tracer = make_tracer ?trace_ctx ~seed ~samples ~shards () in
  Option.iter Fsutil.mkdir_p part_dir;
  let start = campaign_event (Events.Campaign_started { shards; samples }) in
  fire start;
  let r =
    Trace.span tracer "campaign" (fun () ->
        let site_tallies : (int, Stats.tally) Hashtbl.t = Hashtbl.create 64 in
        let tally site =
          Option.value ~default:Stats.zero (Hashtbl.find_opt site_tallies site)
        in
        let prior = ref Stats.zero in
        let rev_samples = ref [] and rev_body = ref [] in
        let round_ends = ref [] and retried = ref 0 in
        let round = ref 0 and stop = ref false in
        while !round < Array.length rounds && not !stop do
          Trace.span tracer "round" (fun () ->
              let { Shard.lo; hi } = rounds.(!round) in
              let n = hi - lo in
              let alloc =
                if !round = 0 then None
                else
                  Trace.span tracer "allocate" (fun () ->
                      Some (allocate target ~tally ~n))
              in
              let ranges =
                Array.map
                  (fun (r : Shard.range) ->
                    { Shard.lo = r.Shard.lo + lo; hi = r.Shard.hi + lo })
                  (Shard.plan ~shards ~samples:n)
              in
              let k = Array.length ranges in
              let ids = Array.init k (fun s -> (!round * shards) + s) in
              let wv = match workers with Some w -> max 1 w | None -> min k 4 in
              let streams, markers, r =
                run_wave ~fault_bits ~traced:(mode = Traced) ~retries
                  ~workers:wv ~fire ~part_dir ~sabotage ~garble ~seed
                  ~alloc ~alloc_lo:lo ~base_spent:lo ~budget:samples
                  ~prior:!prior ~tracer ~pool target ids ranges
              in
              Array.iter
                (fun s ->
                  List.iter
                    (fun (o : Shard.sample_out) ->
                      if o.Shard.o_static >= 0 then
                        Hashtbl.replace site_tallies o.o_static
                          (Stats.add (tally o.o_static) (o.o_class = F.Sdc));
                      prior := Stats.add !prior (o.Shard.o_class = F.Sdc))
                    s.s_samples;
                  rev_samples := s.s_samples @ !rev_samples)
                streams;
              Trace.counter tracer "round" !round;
              Trace.counter tracer "samples" n;
              rev_body := wave_body streams markers :: !rev_body;
              round_ends := hi :: !round_ends;
              retried := !retried + r;
              incr round;
              if target_ci > 0.0 && !round < Array.length rounds then
                stop :=
                  Array.for_all
                    (fun site ->
                      Stats.half_width (Stats.wilson (tally site)) <= target_ci)
                    (F.site_candidates target))
        done;
        let all_samples = List.rev !rev_samples in
        let record_lines, clock, counts, vulnmap =
          Trace.span tracer "merge" (fun () ->
              merge_samples ~mode target all_samples)
        in
        let stats_src =
          Trace.span tracer "stats" (fun () ->
              stats_src ~budget:samples ~round_ends:!round_ends all_samples)
        in
        Trace.counter tracer "samples" counts.F.samples;
        Trace.counter tracer "rounds" !round;
        let finished =
          campaign_event
            (Events.Campaign_finished
               {
                 total = counts.F.samples;
                 tally = tally_of_counts counts;
                 clock;
               })
        in
        fire finished;
        {
          counts;
          record_lines;
          vulnmap;
          clock;
          events =
            canonical_log ~start ~finished (List.concat (List.rev !rev_body));
          retried = !retried;
          stats_src;
          trace_spans = [];
          trace_walls = [];
        })
  in
  {
    r with
    trace_spans = Trace.span_lines tracer;
    trace_walls = Trace.wall_lines tracer;
  }
