(* Sharded campaign execution on a Unix.fork worker pool.

   Each worker runs one shard (a contiguous global-sample range) and
   streams a line protocol back over its pipe: typed events, per-sample
   outputs, then an explicit done marker.  The parent multiplexes the
   pipes with Unix.select, detects worker death (EOF without the done
   marker) and retries the shard, then merges shard outputs in global
   sample order — which, with index-keyed per-sample RNG, makes the
   merged result byte-identical for any shard count.

   Wire protocol (one line each, worker -> parent):
     s<TAB>...<TAB>{record}  a sample (Shard.write_sample): the fields
                             the merge needs, tab-separated, then the
                             record JSON verbatim, rendered once in the
                             worker and never re-escaped or parsed
     {"t":"ev","ev":{...}}   a Ferrum_telemetry.Events event
     {"t":"tr","l":"..."}    a serialized ferrum.trace.v1 span row
     {"t":"tw","l":"..."}    a serialized ferrum.trace.v1 wall row
     {"t":"done"}            clean end of stream
   A sample line whose fields do not read back (a truncated line, a
   misplaced separator, a record of another sample) is a protocol error,
   like a line that is not JSON, a sample out of order or any line after
   the done marker: the attempt is killed and retried.

   Trace rows are emitted in one batch after the shard's last sample
   (a worker that dies or garbles mid-shard contributes none), so the
   stitched campaign trace — like the canonical event log — contains
   only successful attempts and stays byte-reproducible per seed.

   A shard's successful raw stream is also persisted verbatim to
   [part_dir]/shard-<i>.jsonl (write-then-rename), so an interrupted
   campaign resumes by replaying finished shards from disk.

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

type result = {
  counts : F.counts;
  record_lines : string list;  (** global sample order *)
  vulnmap : F.vulnmap option;  (** [Traced] mode only *)
  clock : int;  (** logical clock: summed injected-run steps *)
  events : Events.t list;  (** canonical merged log, seq 0.. *)
  retried : int;  (** worker deaths recovered by retry *)
  stats_lines : string list;  (** ferrum.stats.v1 rows, canonical order *)
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
(* Wire protocol.                                                      *)
(* ------------------------------------------------------------------ *)

type wire =
  | W_event of Events.t
  | W_sample of Shard.sample_out
  | W_trace of string  (** raw ferrum.trace.v1 span row *)
  | W_twall of string  (** raw ferrum.trace.v1 wall row *)
  | W_done

(* A sample line is read by {!Shard.read_sample}; every other line is a
   JSON object tagged by its "t" field. *)
let parse_wire line : (wire, string) Stdlib.result =
  if String.length line > 1 && line.[0] = 's' && line.[1] = '\t' then
    Result.map (fun s -> W_sample s) (Shard.read_sample line)
  else
    match Json.of_string_opt line with
    | None -> Error "worker line is not valid JSON"
    | Some j -> (
      match Json.member "t" j with
      | Some (Json.Str "ev") -> (
        match Json.member "ev" j with
        | Some ev -> Result.map (fun e -> W_event e) (Events.of_json ev)
        | None -> Error "ev line lacks payload")
      | Some (Json.Str "tr") -> (
        match Json.member "l" j with
        | Some (Json.Str l) -> Ok (W_trace l)
        | _ -> Error "trace line lacks payload")
      | Some (Json.Str "tw") -> (
        match Json.member "l" j with
        | Some (Json.Str l) -> Ok (W_twall l)
        | _ -> Error "trace wall line lacks payload")
      | Some (Json.Str "done") -> Ok W_done
      | _ -> Error "worker line lacks a known tag")

(* ------------------------------------------------------------------ *)
(* Worker side.                                                        *)
(* ------------------------------------------------------------------ *)

(* A class's counter in a worker's running tally. *)
let class_slot = function
  | F.Benign -> 0
  | F.Sdc -> 1
  | F.Detected -> 2
  | F.Crash -> 3
  | F.Timeout -> 4

(* Runs in the forked child; never returns.  Exits with Unix._exit so
   no parent at_exit handler (test runners, sinks) fires twice.

   [base_spent]/[budget]/[prior] parameterize the confidence heartbeat:
   the global samples completed before this shard's range began, the
   whole campaign's sample budget, and the SDC tally of those completed
   samples — so Progress events carry budget-denominated progress and a
   live Wilson half-width that already includes prior rounds. *)
let worker_main ~fault_bits ~traced ~seed ~heartbeats ~shard ~attempt
    ~die_after ~garble_after ~assign ~base_spent ~budget ~prior ~tctx target
    (range : Shard.range) wfd =
  let oc = Unix.out_channel_of_descr wfd in
  let emit_line j =
    output_string oc (Json.to_string j);
    output_char oc '\n'
  in
  (* Events go out as they happen, so the runner, the live log and its
     subscribers see a shard start and progress while it runs; sample
     lines ride along in the channel buffer. *)
  let emit_event body =
    emit_line
      (Json.Obj
         [
           ("t", Json.Str "ev");
           ("ev", Events.to_json { Events.seq = 0; shard; attempt; body });
         ]);
    flush oc
  in
  (* The worker's span recorder continues the parent's trace context
     inherited through the fork: its root span id was minted by the
     parent from the global shard id, so ids are collision-free across
     the pool without coordination.  Rows ship back over the pipe in
     one batch before the done marker — a dead attempt contributes
     nothing, keeping the stitched trace deterministic under retries. *)
  let tr = Trace.scoped tctx ~proc:(Fmt.str "worker-%d" shard) in
  F.reset_phases target;
  let total = Shard.range_samples range in
  let every = max 1 (total / max 1 heartbeats) in
  (try
     Trace.span tr "shard" (fun () ->
         emit_event
           (Events.Shard_started { lo = range.Shard.lo; hi = range.hi });
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
         Shard.run_range ~fault_bits ?assign ~traced ~seed target range
           ~on_sample:(fun record line ->
             (match die_after with
             | Some k when !done_ >= k ->
               flush oc;
               Unix._exit 66
             | _ -> ());
             (match garble_after with
             | Some (k, garbled) when !done_ = k ->
               output_string oc (garbled (Buffer.contents line))
             | _ -> Buffer.output_buffer oc line);
             output_char oc '\n';
             incr done_;
             let steps = record.F.steps in
             clock := !clock + steps;
             Trace.advance tr steps;
             let c = class_slot record.F.r_class in
             by_class.(c) <- by_class.(c) + 1;
             if !done_ mod every = 0 && !done_ < total then begin
               let seen =
                 Stats.merge prior { Stats.n = !done_; k = by_class.(1) }
               in
               emit_event
                 (Events.Progress
                    {
                      done_ = !done_;
                      total;
                      tally = tally ();
                      clock = !clock;
                      spent = base_spent + !done_;
                      budget;
                      hw = Stats.half_width (Stats.wilson seen);
                    })
             end);
         (* Engine-phase breakdown of this shard's work, as one span of
            deterministic counters (golden walk, checkpoint restores,
            prefix replay and its fused part, post-flip suffixes,
            predecode activity, golden convergence). *)
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
             Trace.counter tr "skipped_steps" ph.F.ph_skipped_steps);
         Trace.counter tr "samples" !done_;
         emit_event
           (Events.Shard_finished
              { done_ = !done_; total; tally = tally (); clock = !clock }));
     List.iter
       (fun l -> emit_line (Json.Obj [ ("t", Json.Str "tr"); ("l", Json.Str l) ]))
       (Trace.span_lines tr);
     List.iter
       (fun l -> emit_line (Json.Obj [ ("t", Json.Str "tw"); ("l", Json.Str l) ]))
       (Trace.wall_lines tr);
     emit_line (Json.Obj [ ("t", Json.Str "done") ]);
     flush oc;
     Unix._exit 0
   with _ ->
     (try flush oc with _ -> ());
     Unix._exit 70)

(* ------------------------------------------------------------------ *)
(* Parent side.                                                        *)
(* ------------------------------------------------------------------ *)

(* One shard's parsed successful stream, plus the raw lines for the
   part file. *)
type shard_data = {
  d_events : Events.t list;  (** stream order *)
  d_samples : Shard.sample_out list;  (** stream order *)
  d_lines : string list;  (** raw protocol lines, stream order *)
  d_tr : string list;  (** raw span rows, stream order *)
  d_tw : string list;  (** raw wall rows, stream order *)
}

(* A shard's stream as read so far, from a live worker's pipe or from a
   saved part file: both go through {!absorb_line}, so a replayed part
   is accepted exactly when the attempt that wrote it was. *)
type stream = {
  mutable s_events : Events.t list;  (** reversed *)
  mutable s_samples : Shard.sample_out list;  (** reversed *)
  mutable s_lines : string list;  (** reversed *)
  mutable s_tr : string list;  (** reversed *)
  mutable s_tw : string list;  (** reversed *)
  mutable s_next : int;  (** the sample expected next *)
  mutable s_done : bool;
}

let empty_stream (range : Shard.range) =
  { s_events = []; s_samples = []; s_lines = []; s_tr = []; s_tw = [];
    s_next = range.Shard.lo; s_done = false }

(* Apply one protocol line to [s]; returns what it parsed to.  A line
   that does not parse, a sample out of order and any line after the
   done marker are protocol errors. *)
let absorb_line s line : (wire, string) Stdlib.result =
  let keep w =
    s.s_lines <- line :: s.s_lines;
    Ok w
  in
  if s.s_done then Error "worker line after the done marker"
  else
    match parse_wire line with
    | Error e -> Error e
    | Ok (W_event e as w) ->
      s.s_events <- e :: s.s_events;
      keep w
    | Ok (W_sample x as w) ->
      if x.Shard.o_sample <> s.s_next then
        Error
          (Fmt.str "sample %d where %d was due" x.Shard.o_sample s.s_next)
      else begin
        s.s_samples <- x :: s.s_samples;
        s.s_next <- s.s_next + 1;
        keep w
      end
    | Ok (W_trace l as w) ->
      s.s_tr <- l :: s.s_tr;
      keep w
    | Ok (W_twall l as w) ->
      s.s_tw <- l :: s.s_tw;
      keep w
    | Ok (W_done as w) ->
      s.s_done <- true;
      keep w

(* The shard's data once [s] is complete for [range]: ended by the done
   marker after exactly the samples [lo, hi), in order. *)
let complete (range : Shard.range) s : shard_data option =
  if s.s_done && s.s_next = range.Shard.hi then
    Some
      {
        d_events = List.rev s.s_events;
        d_samples = List.rev s.s_samples;
        d_lines = List.rev s.s_lines;
        d_tr = List.rev s.s_tr;
        d_tw = List.rev s.s_tw;
      }
  else None

type running = {
  r_shard : int;  (** global shard id *)
  r_index : int;  (** index into this wave's range array *)
  r_attempt : int;
  r_pid : int;
  r_fd : Unix.file_descr;
  r_buf : Buffer.t;  (** partial trailing line *)
  r_stream : stream;
  mutable r_fail : string option;
      (** protocol violation on this attempt's stream; treated like
          worker death (kill, reap, retry) *)
}

let part_path dir shard = Filename.concat dir (Fmt.str "shard-%d.jsonl" shard)

(* Replay a saved part stream; [None] unless it is {!complete} for
   [range]. *)
let load_part (range : Shard.range) path : shard_data option =
  if not (Sys.file_exists path) then None
  else begin
    let s = empty_stream range in
    let rec go = function
      | [] -> complete range s
      | line :: rest -> (
        match absorb_line s line with Ok _ -> go rest | Error _ -> None)
    in
    go (Ferrum_telemetry.Metrics.read_lines path)
  end

let save_part dir shard (d : shard_data) =
  Fsutil.mkdir_p dir;
  let path = part_path dir shard in
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  List.iter
    (fun l ->
      output_string oc l;
      output_char oc '\n')
    d.d_lines;
  close_out oc;
  Sys.rename tmp path

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

(* One wave of shard execution: spawn, multiplex, retry and persist a
   set of shards, where wave-local index i runs range [ranges.(i)]
   under global shard id [ids.(i)] (r*K + s in round r).  Returns the
   per-shard successful streams, the per-shard retry markers
   (chronological) and the retry count. *)
let run_wave ~fault_bits ~traced ~heartbeats ~retries ~workers ~fire ~part_dir
    ~sabotage ~garble ~seed ~assign ~base_spent ~budget ~prior ~tracer target
    (ids : int array) (ranges : Shard.range array) :
    shard_data array * Events.t list array * int =
  let k = Array.length ranges in
  (* Resume: replay finished shards from their part files. *)
  let completed : shard_data option array = Array.make k None in
  (match part_dir with
  | Some dir ->
    Array.iteri
      (fun i range -> completed.(i) <- load_part range (part_path dir ids.(i)))
      ranges
  | None -> ());
  Array.iter
    (function
      | Some d -> List.iter fire d.d_events
      | None -> ())
    completed;
  let retry_markers : Events.t list array = Array.make k [] (* reversed *) in
  let retried = ref 0 in
  let running : running list ref = ref [] in
  let spawn i attempt =
    (* Span context for the child, keyed on the global shard id alone:
       a retried attempt re-mints the identical context, so the
       eventual successful attempt's span ids do not depend on how
       many attempts preceded it. *)
    let tctx = Trace.ctx_for tracer ~seg:(Fmt.str "s%d" ids.(i)) in
    let rfd, wfd = Unix.pipe () in
    flush stdout;
    flush stderr;
    match Unix.fork () with
    | 0 ->
      (* Child: drop every parent-side read end so a long-lived sibling
         cannot hold another shard's pipe open past its worker's exit. *)
      Unix.close rfd;
      List.iter (fun r -> try Unix.close r.r_fd with _ -> ()) !running;
      let die_after =
        match sabotage with
        | Some f -> f ~shard:ids.(i) ~attempt
        | None -> None
      in
      let garble_after =
        match garble with
        | Some f -> f ~shard:ids.(i) ~attempt
        | None -> None
      in
      worker_main ~fault_bits ~traced ~seed ~heartbeats ~shard:ids.(i)
        ~attempt ~die_after ~garble_after ~assign ~base_spent ~budget ~prior
        ~tctx target ranges.(i) wfd
    | pid ->
      Unix.close wfd;
      running :=
        {
          r_shard = ids.(i);
          r_index = i;
          r_attempt = attempt;
          r_pid = pid;
          r_fd = rfd;
          r_buf = Buffer.create 4096;
          r_stream = empty_stream ranges.(i);
          r_fail = None;
        }
        :: !running
  in
  (* A line that fails to parse poisons the attempt: stop consuming,
     drop the rest of the buffered data, and let the caller route the
     worker through the ordinary death/retry path.  Never raise from
     inside the select loop — that would leak live children. *)
  let feed r chunk =
    Buffer.add_string r.r_buf chunk;
    let data = Buffer.contents r.r_buf in
    let rec consume start =
      match String.index_from_opt data start '\n' with
      | None ->
        Buffer.clear r.r_buf;
        Buffer.add_substring r.r_buf data start (String.length data - start)
      | Some nl ->
        let line = String.sub data start (nl - start) in
        if String.trim line <> "" then begin
          match absorb_line r.r_stream line with
          | Ok w ->
            (match w with W_event e -> fire e | _ -> ());
            consume (nl + 1)
          | Error e ->
            r.r_fail <- Some e;
            Buffer.clear r.r_buf
        end
        else consume (nl + 1)
    in
    consume 0
  in
  (* Kill and reap every outstanding worker; used before the campaign
     propagates a failure so no forked child outlives the parent. *)
  let reap_all () =
    List.iter
      (fun r ->
        (try Unix.kill r.r_pid Sys.sigkill with Unix.Unix_error _ -> ());
        (try Unix.close r.r_fd with Unix.Unix_error _ -> ());
        try ignore (Unix.waitpid [] r.r_pid) with Unix.Unix_error _ -> ())
      !running;
    running := []
  in
  let finish r =
    (try Unix.close r.r_fd with Unix.Unix_error _ -> ());
    let _, status = Unix.waitpid [] r.r_pid in
    running := List.filter (fun x -> x != r) !running;
    let range = ranges.(r.r_index) in
    let total = Shard.range_samples range in
    let got = r.r_stream.s_next - range.Shard.lo in
    match (r.r_fail, complete range r.r_stream) with
    | None, Some d -> (
      completed.(r.r_index) <- Some d;
      match part_dir with
      | Some dir -> save_part dir r.r_shard d
      | None -> ())
    | _ ->
      let reason =
        match r.r_fail with
        | Some e -> Fmt.str "protocol error after %d/%d samples: %s" got total e
        | None -> status_reason status ~got ~total
      in
      let marker =
        {
          Events.seq = 0;
          shard = r.r_shard;
          attempt = r.r_attempt;
          body = Events.Shard_retry { reason };
        }
      in
      fire marker;
      retry_markers.(r.r_index) <- marker :: retry_markers.(r.r_index);
      incr retried;
      if r.r_attempt + 1 > retries then begin
        reap_all ();
        failwith
          (Fmt.str "campaign shard %d failed after %d attempts: %s" r.r_shard
             (r.r_attempt + 1) reason)
      end
      else spawn r.r_index (r.r_attempt + 1)
  in
  let next = ref 0 in
  let buf = Bytes.create 65536 in
  while !next < k || !running <> [] do
    while
      !next < k
      && (completed.(!next) <> None || List.length !running < workers)
    do
      let i = !next in
      incr next;
      if completed.(i) = None then spawn i 0
    done;
    if !running <> [] then begin
      let ready = select_read (List.map (fun r -> r.r_fd) !running) in
      List.iter
        (fun fd ->
          match List.find_opt (fun r -> r.r_fd = fd) !running with
          | None -> ()
          | Some r -> (
            match Unix.read fd buf 0 (Bytes.length buf) with
            | 0 -> finish r
            | n ->
              feed r (Bytes.sub_string buf 0 n);
              if r.r_fail <> None then begin
                (try Unix.kill r.r_pid Sys.sigkill
                 with Unix.Unix_error _ -> ());
                finish r
              end
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()))
        ready
    end
  done;
  let datas =
    Array.map
      (function Some d -> d | None -> assert false (* loop invariant *))
      completed
  in
  (* Stitch worker rows into the parent recorder in shard-id order —
     completion order is racy, absorption order is not — and advance
     the parent's logical clock past the wave's work so later spans
     start after every child span they follow. *)
  Array.iter
    (fun (d : shard_data) ->
      Trace.absorb tracer ~span_lines:d.d_tr ~wall_lines:d.d_tw)
    datas;
  Trace.advance tracer
    (Array.fold_left
       (fun acc d ->
         List.fold_left (fun a (o : Shard.sample_out) -> a + o.Shard.o_steps)
           acc d.d_samples)
       0 datas);
  (datas, Array.map List.rev retry_markers, !retried)

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

(* The ferrum.stats.v1 document of a merged campaign: fold every sample
   in global order through a convergence stream, closing a round at
   each boundary in [round_ends] (cumulative sample counts). *)
let stats_of_samples ~budget ~round_ends (all_samples : Shard.sample_out list)
    =
  let s = Stats.create ~budget () in
  List.iter
    (fun (o : Shard.sample_out) ->
      Stats.observe s ~site:o.Shard.o_static
        ~sdc:(o.Shard.o_class = F.Sdc);
      if List.mem (Stats.spent s) round_ends then Stats.round_end s)
    all_samples;
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

let wave_body (datas : shard_data array) (markers : Events.t list array) =
  List.concat
    (List.init (Array.length datas) (fun i ->
         markers.(i) @ datas.(i).d_events))

(* ------------------------------------------------------------------ *)
(* Running a campaign.                                                 *)
(* ------------------------------------------------------------------ *)

(* The campaign tracer: continue a caller-provided context (daemon job
   span), or root a fresh trace whose id is either caller-chosen or
   derived from the campaign parameters — so a campaign traces
   unconditionally and trace.jsonl is a total artifact like the event
   log. *)
let make_tracer ?trace_ctx ?trace_id ~seed ~samples ~shards () =
  match trace_ctx with
  | Some ctx -> Trace.scoped ctx ~proc:"runner"
  | None ->
    let trace =
      match trace_id with
      | Some t -> t
      | None ->
        Trace.derive_id ~seed (Fmt.str "campaign:%d:%d" samples shards)
    in
    Trace.create ~trace ~proc:"runner" ()

(* Every campaign runs here.  The budget is split into [policy.rounds]
   rounds, round r's samples allocated from the merged per-site
   statistics of rounds < r via {!allocate}; a flat campaign ([policy]
   absent) is the one-round case, so it writes exactly what a one-round
   adaptive run writes.  Rounds are barriers over contiguous global
   index blocks and the allocation is a pure function of merged prior
   output, so every record is byte-identical for any shard count, and a
   resumed run (same part_dir) recomputes the same allocations from its
   part files. *)
let run ?(fault_bits = 1) ?(heartbeats = 8) ?(retries = 2) ?workers ?on_event
    ?part_dir ?sabotage ?garble ?policy ?trace_ctx ?trace_id ~mode ~shards
    ~seed ~samples (target : F.target) : result =
  if samples <= 0 then invalid_arg "Runner.run: samples must be positive";
  if target.F.eligible_steps = 0 then
    invalid_arg "Runner.run: no eligible injection sites";
  let { rounds; target_ci } =
    Option.value policy ~default:{ rounds = 1; target_ci = 0.0 }
  in
  let rounds = Shard.plan ~shards:rounds ~samples in
  let fire = match on_event with Some f -> f | None -> ignore in
  let tracer = make_tracer ?trace_ctx ?trace_id ~seed ~samples ~shards () in
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
              let assign =
                if !round = 0 then None
                else
                  Trace.span tracer "allocate" (fun () ->
                      let alloc = allocate target ~tally ~n in
                      Some (fun sample -> alloc.(sample - lo)))
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
              let datas, markers, r =
                run_wave ~fault_bits ~traced:(mode = Traced) ~heartbeats
                  ~retries ~workers:wv ~fire ~part_dir ~sabotage ~garble ~seed
                  ~assign ~base_spent:lo ~budget:samples ~prior:!prior ~tracer
                  target ids ranges
              in
              Array.iter
                (fun (d : shard_data) ->
                  List.iter
                    (fun (o : Shard.sample_out) ->
                      if o.Shard.o_static >= 0 then
                        Hashtbl.replace site_tallies o.o_static
                          (Stats.add (tally o.o_static) (o.o_class = F.Sdc));
                      prior := Stats.add !prior (o.Shard.o_class = F.Sdc);
                      rev_samples := o :: !rev_samples)
                    d.d_samples)
                datas;
              Trace.counter tracer "round" !round;
              Trace.counter tracer "samples" n;
              rev_body := wave_body datas markers :: !rev_body;
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
        let stats_lines =
          Trace.span tracer "stats" (fun () ->
              stats_of_samples ~budget:samples ~round_ends:!round_ends
                all_samples)
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
          stats_lines;
          trace_spans = [];
          trace_walls = [];
        })
  in
  {
    r with
    trace_spans = Trace.span_lines tracer;
    trace_walls = Trace.wall_lines tracer;
  }
