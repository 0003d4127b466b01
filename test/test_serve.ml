(* Tests for the campaign service: SSE framing across arbitrary chunk
   boundaries and Last-Event-ID resume, the content-addressed run
   store (cache-hit byte-identity, corrupt-entry rejection), the
   persistent job queue, Fsutil's copy/rename plumbing, the heartbeat
   ETA clamp, the cross-run history page, and an end-to-end daemon
   round trip over a loopback socket. *)

open Ferrum_asm
module Machine = Ferrum_machine.Machine
module F = Ferrum_faultsim.Faultsim
module Json = Ferrum_telemetry.Json
module Metrics = Ferrum_telemetry.Metrics
module Events = Ferrum_telemetry.Events
module Sse = Ferrum_telemetry.Sse
module Trace = Ferrum_telemetry.Trace
module Runner = Ferrum_campaign.Runner
module Manifest = Ferrum_campaign.Manifest
module Store = Ferrum_campaign.Store
module Queue = Ferrum_campaign.Queue
module Fsutil = Ferrum_campaign.Fsutil
module Html = Ferrum_report.Html
module History = Ferrum_report.History
module Http = Ferrum_serve.Http
module Spec = Ferrum_serve.Spec
module Daemon = Ferrum_serve.Daemon

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  go 0

let tmp_dir name =
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Fmt.str "ferrum-serve-%d-%s" (Unix.getpid ()) name)
  in
  Fsutil.rm_rf d;
  d

(* The instant protected-looking fixture the campaign tests use. *)
let checked_program () =
  Prog.program
    [ Prog.func "main"
        [ Prog.block "main"
            [ Instr.original (Instr.Mov (Reg.Q, Instr.Imm 7L, Instr.Reg Reg.RDI));
              Instr.dup (Instr.Mov (Reg.Q, Instr.Imm 7L, Instr.Reg Reg.R10));
              Instr.check (Instr.Cmp (Reg.Q, Instr.Reg Reg.R10, Instr.Reg Reg.RDI));
              Instr.check (Instr.Jcc (Cond.NE, "exit_function"));
              Instr.original (Instr.Call "print_i64");
              Instr.original Instr.Ret ] ] ]

let fixture_target () = F.prepare (Machine.load (checked_program ()))

(* One finished fixture campaign plus its manifest. *)
let fixture_run ?(seed = 99L) ?(samples = 30) ?(shards = 3) () =
  let program = checked_program () in
  let target = fixture_target () in
  let result =
    Runner.run ~mode:Runner.Traced ~shards ~seed ~samples target
  in
  let manifest =
    Manifest.make ~benchmark:"fixture" ~technique:"raw" ~samples ~seed
      ~shards ~fault_bits:1 ~all_sites:false ~traced:true ~program target
  in
  (manifest, result)

(* Write a finished run as a complete, publishable store entry. *)
let spool_run ~dir (manifest, result) =
  Store.write_run ~dir ~manifest ~result ();
  Fsutil.write_file
    (Filename.concat dir Store.run_file)
    (Store.jsonl (Store.run_header [])
       [ Json.to_string (Store.run_record ~manifest ~result) ])

(* ---- SSE framing ---- *)

(* Chunk boundaries must never change what a decoder sees: the same
   byte stream fed 1, 2, 3, 7 bytes at a time and all at once yields
   the same events. *)
let test_sse_chunking () =
  let events =
    List.init 40 (fun i ->
        (i, Fmt.str "{\"seq\":%d,\"payload\":\"x%d\"}" i i))
  in
  let stream =
    Sse.retry_frame 500 ^ Sse.comment "hello"
    ^ Sse.encode_lines events ^ Sse.comment "bye"
  in
  let reference = Sse.decode_string stream in
  Alcotest.(check int) "event count" 40 (List.length reference);
  List.iter
    (fun size ->
      let d = Sse.decoder () in
      let out = ref [] in
      let n = String.length stream in
      let rec go off =
        if off < n then begin
          let len = min size (n - off) in
          out := List.rev_append (Sse.feed d (String.sub stream off len)) !out;
          go (off + len)
        end
      in
      go 0;
      let got = List.rev !out in
      Alcotest.(check int)
        (Fmt.str "count at chunk size %d" size)
        (List.length reference) (List.length got);
      List.iter2
        (fun (r : Sse.event) (g : Sse.event) ->
          Alcotest.(check (option int)) "id" r.Sse.id g.Sse.id;
          Alcotest.(check string) "data" r.Sse.data g.Sse.data)
        reference got;
      Alcotest.(check int) "last id" 39 (Sse.last_event_id d))
    [ 1; 2; 3; 7 ]

(* Multiple data: lines in one frame join with a newline (the SSE
   dispatch rule), and the joined payload survives arbitrary chunk
   boundaries — including cuts inside the continuation lines. *)
let test_sse_multiline_data () =
  let stream =
    "id: 7\ndata: first\ndata: second\ndata: third\n\n"
    ^ ": keepalive\n\n" ^ "data: solo\n\n"
  in
  let expect = [ (Some 7, "first\nsecond\nthird"); (None, "solo") ] in
  let check_events label got =
    Alcotest.(check int) (label ^ " count") (List.length expect)
      (List.length got);
    List.iter2
      (fun (id, data) (g : Sse.event) ->
        Alcotest.(check (option int)) (label ^ " id") id g.Sse.id;
        Alcotest.(check string) (label ^ " data") data g.Sse.data)
      expect got
  in
  check_events "whole" (Sse.decode_string stream);
  List.iter
    (fun size ->
      let d = Sse.decoder () in
      let out = ref [] in
      let n = String.length stream in
      let rec go off =
        if off < n then begin
          let len = min size (n - off) in
          out := List.rev_append (Sse.feed d (String.sub stream off len)) !out;
          go (off + len)
        end
      in
      go 0;
      check_events (Fmt.str "chunk %d" size) (List.rev !out))
    [ 1; 2; 5 ]

(* CRLF line endings and field-colon variants decode identically. *)
let test_sse_crlf () =
  let crlf = "id: 4\r\ndata: {\"a\":1}\r\n\r\n" in
  (match Sse.decode_string crlf with
  | [ e ] ->
    Alcotest.(check (option int)) "id" (Some 4) e.Sse.id;
    Alcotest.(check string) "data" "{\"a\":1}" e.Sse.data
  | other ->
    Alcotest.failf "expected one event, got %d" (List.length other));
  match Sse.decode_string "data:nospace\n\n" with
  | [ e ] -> Alcotest.(check string) "no space" "nospace" e.Sse.data
  | other -> Alcotest.failf "expected one event, got %d" (List.length other)

(* Disconnect mid-frame, resume with Last-Event-ID: the reassembled
   stream is the canonical event log and passes Events.replay. *)
let test_sse_resume_replay () =
  let _, result = fixture_run () in
  let lines =
    List.map
      (fun (e : Events.t) -> (e.Events.seq, Json.to_string (Events.to_json e)))
      result.Runner.events
  in
  let stream = Sse.encode_lines lines in
  (* cut mid-stream, inside a frame, at several offsets *)
  List.iter
    (fun frac ->
      let cut = String.length stream * frac / 10 in
      let d = Sse.decoder () in
      let first = Sse.feed d (String.sub stream 0 cut) in
      let last = Sse.last_event_id d in
      (* server side: everything strictly after [last] *)
      let rest = Sse.resume ~after:last lines in
      let second = Sse.decode_string (Sse.encode_lines rest) in
      let records =
        List.map (fun (e : Sse.event) -> e.Sse.data) (first @ second)
      in
      Alcotest.(check int)
        (Fmt.str "no gaps, no dupes at cut %d" cut)
        (List.length lines) (List.length records);
      match Events.replay records with
      | Ok (tally, clock) ->
        Alcotest.(check int)
          "replayed samples" 30 (Events.tally_total tally);
        Alcotest.(check bool) "clock positive" true (clock > 0)
      | Error e -> Alcotest.failf "cut %d: replay failed: %s" cut e)
    [ 1; 3; 5; 7; 9 ]

(* ---- heartbeat ETA clamp ---- *)

let test_eta_clamp () =
  let check msg expected got =
    Alcotest.(check (float 1e-9)) msg expected got
  in
  (* a shard finishing inside one heartbeat interval used to divide by
     a zero rate; now: no observed rate assumes one clock unit per
     remaining sample *)
  check "no progress yet" 10. (Events.eta ~done_:0 ~total:10 ~clock:0);
  check "clock stuck at zero" 4. (Events.eta ~done_:6 ~total:10 ~clock:0);
  check "nothing remaining" 0. (Events.eta ~done_:10 ~total:10 ~clock:0);
  check "overshoot clamps to zero" 0. (Events.eta ~done_:12 ~total:10 ~clock:50);
  (* the normal extrapolation is untouched *)
  check "extrapolation" 50. (Events.eta ~done_:5 ~total:10 ~clock:50)

(* ---- content-addressed store ---- *)

let read_file = Fsutil.read_file

(* Publishing the same configuration twice is a cache hit: the second
   publish is discarded and the stored artifacts are byte-identical to
   the first run's. *)
let test_store_cache_hit () =
  let root = tmp_dir "store-hit" in
  let publish () =
    let dir = tmp_dir "store-hit-src" in
    let run = fixture_run () in
    spool_run ~dir run;
    let bytes =
      List.map
        (fun f -> (f, read_file (Filename.concat dir f)))
        [ Store.injection_file; Store.vulnmap_file; Store.events_file ]
    in
    match Store.publish ~root ~src:dir with
    | Ok digest -> (digest, bytes)
    | Error e -> Alcotest.failf "publish: %s" e
  in
  let d1, bytes1 = publish () in
  let d2, bytes2 = publish () in
  Alcotest.(check string) "same digest" d1 d2;
  let entry = Store.entry_dir ~root d1 in
  List.iter
    (fun (f, b) ->
      Alcotest.(check string)
        (Fmt.str "stored %s byte-identical to first run" f)
        b
        (read_file (Filename.concat entry f)))
    bytes1;
  (* and the second run produced the same bytes to begin with *)
  List.iter2
    (fun (f, a) (_, b) ->
      Alcotest.(check string) (Fmt.str "runs agree on %s" f) a b)
    bytes1 bytes2;
  (match Store.lookup ~root d1 with
  | Store.Hit dir -> Alcotest.(check string) "hit dir" entry dir
  | _ -> Alcotest.fail "expected Hit");
  (* exactly one index record *)
  match Metrics.read_lines (Store.index_file root) with
  | [ _header; record ] ->
    Alcotest.(check bool) "index names the digest" true
      (contains ~affix:d1 record)
  | lines -> Alcotest.failf "index has %d lines" (List.length lines)

(* Tampered or torn entries are rejected, never served. *)
let test_store_corrupt_rejected () =
  let root = tmp_dir "store-corrupt" in
  let dir = tmp_dir "store-corrupt-src" in
  spool_run ~dir (fixture_run ());
  let digest =
    match Store.publish ~root ~src:dir with
    | Ok d -> d
    | Error e -> Alcotest.failf "publish: %s" e
  in
  Alcotest.(check bool) "unknown digest is Miss" true
    (Store.lookup ~root (String.make 32 '0') = Store.Miss);
  Alcotest.(check bool) "path-traversal name is Miss" true
    (Store.lookup ~root "../evil" = Store.Miss);
  let entry = Store.entry_dir ~root digest in
  (* torn entry: a promised artifact is gone *)
  Sys.remove (Filename.concat entry Store.vulnmap_file);
  (match Store.lookup ~root digest with
  | Store.Corrupt e ->
    Alcotest.(check bool) "names the artifact" true
      (contains ~affix:Store.vulnmap_file e)
  | _ -> Alcotest.fail "expected Corrupt after deleting an artifact");
  (* tampered manifest: re-digests to a different name *)
  let mpath = Filename.concat entry Manifest.file in
  let m = read_file mpath in
  let tampered =
    let needle = "\"samples\":30" in
    match
      let n = String.length needle and len = String.length m in
      let rec find i =
        if i + n > len then None
        else if String.sub m i n = needle then Some i
        else find (i + 1)
      in
      find 0
    with
    | Some i ->
      String.sub m 0 i ^ "\"samples\":31"
      ^ String.sub m (i + String.length needle)
          (String.length m - i - String.length needle)
    | None -> Alcotest.fail "fixture manifest lacks the samples field"
  in
  Fsutil.write_file mpath tampered;
  (match Store.lookup ~root digest with
  | Store.Corrupt _ -> ()
  | _ -> Alcotest.fail "expected Corrupt after tampering the manifest");
  (* a rebuilt index drops the corrupt entry *)
  Alcotest.(check (list string)) "rebuild drops it" []
    (Store.rebuild_index ~root)

(* The index preserves publication order across rebuilds. *)
let test_store_index_order () =
  let root = tmp_dir "store-order" in
  let publish seed =
    let dir = tmp_dir (Fmt.str "store-order-%Ld" seed) in
    spool_run ~dir (fixture_run ~seed ());
    match Store.publish ~root ~src:dir with
    | Ok d -> d
    | Error e -> Alcotest.failf "publish: %s" e
  in
  (* descending seeds so publication order differs from name order
     only sometimes — the point is stability, not the names *)
  let d1 = publish 7L in
  let d2 = publish 3L in
  let d3 = publish 5L in
  let order = Store.rebuild_index ~root in
  Alcotest.(check (list string)) "publication order" [ d1; d2; d3 ] order;
  Alcotest.(check (list string)) "stable across rebuilds" order
    (Store.rebuild_index ~root)

(* ---- job queue ---- *)

let test_queue_persistence () =
  let dir = tmp_dir "queue" in
  let q = Queue.load ~dir in
  let j1 = Queue.submit q ~spec:"{}" ~digest:"" ~cached:false ~state:Queue.Pending in
  let _j2 = Queue.submit q ~spec:"{}" ~digest:"d2" ~cached:true ~state:Queue.Done in
  let j3 = Queue.submit q ~spec:"{}" ~digest:"" ~cached:false ~state:Queue.Pending in
  Alcotest.(check (list int)) "dense ids" [ 1; 2; 3 ]
    (List.map (fun (j : Queue.job) -> j.Queue.id) (Queue.jobs q));
  Queue.update q { j1 with Queue.state = Queue.Running };
  Queue.update q { j3 with Queue.state = Queue.Failed; error = "boom" };
  (* the file is a valid ferrum.jobs.v1 document *)
  (match
     Metrics.validate_lines ~kind:Queue.kind ~record_fields:Queue.fields
       (Metrics.read_lines (Queue.path q))
   with
  | Ok n -> Alcotest.(check int) "records" 3 n
  | Error e -> Alcotest.failf "queue file invalid: %s" e);
  (* reload: Running demoted to Pending, everything else intact *)
  let q' = Queue.load ~dir in
  let state id =
    match Queue.find q' id with
    | Some j -> j.Queue.state
    | None -> Alcotest.failf "job %d lost" id
  in
  Alcotest.(check bool) "running demoted" true (state 1 = Queue.Pending);
  Alcotest.(check bool) "done kept" true (state 2 = Queue.Done);
  Alcotest.(check bool) "failed kept" true (state 3 = Queue.Failed);
  (match Queue.find q' 3 with
  | Some j -> Alcotest.(check string) "error kept" "boom" j.Queue.error
  | None -> Alcotest.fail "job 3 lost");
  (match Queue.find q' 2 with
  | Some j -> Alcotest.(check bool) "cached kept" true j.Queue.cached
  | None -> Alcotest.fail "job 2 lost");
  match Queue.next_pending q' with
  | Some j -> Alcotest.(check int) "oldest pending first" 1 j.Queue.id
  | None -> Alcotest.fail "no pending job after demotion"

(* ---- fsutil ---- *)

let test_fsutil_tree_ops () =
  let src = tmp_dir "fsutil-src" in
  Fsutil.mkdir_p (Filename.concat src "a/b");
  Fsutil.write_file (Filename.concat src "top.txt") "top";
  Fsutil.write_file (Filename.concat src "a/b/deep.txt") "deep";
  let copy = tmp_dir "fsutil-copy" in
  Fsutil.copy_tree src copy;
  Alcotest.(check string) "copied leaf" "deep"
    (read_file (Filename.concat copy "a/b/deep.txt"));
  Alcotest.(check string) "copied root file" "top"
    (read_file (Filename.concat copy "top.txt"));
  (* the original survives a copy *)
  Alcotest.(check string) "source intact" "deep"
    (read_file (Filename.concat src "a/b/deep.txt"));
  let dst = tmp_dir "fsutil-moved" in
  Fsutil.rename copy dst;
  Alcotest.(check bool) "rename consumed the source" false
    (Sys.file_exists copy);
  Alcotest.(check string) "renamed leaf" "deep"
    (read_file (Filename.concat dst "a/b/deep.txt"))

(* ---- history page ---- *)

let test_history_percentile () =
  let dist = [ (10., 1); (20., 1); (30., 2) ] in
  Alcotest.(check (option (float 1e-9))) "p50" (Some 20.)
    (History.percentile 0.5 dist);
  Alcotest.(check (option (float 1e-9))) "p95" (Some 30.)
    (History.percentile 0.95 dist);
  Alcotest.(check (option (float 1e-9))) "empty" None
    (History.percentile 0.5 [])

let test_history_render () =
  let root = tmp_dir "history-store" in
  let publish seed =
    let dir = tmp_dir (Fmt.str "history-src-%Ld" seed) in
    spool_run ~dir (fixture_run ~seed ());
    match Store.publish ~root ~src:dir with
    | Ok d -> d
    | Error e -> Alcotest.failf "publish: %s" e
  in
  let d1 = publish 7L in
  let d2 = publish 3L in
  (match History.render ~root with
  | Ok html ->
    Alcotest.(check bool) "summary table" true
      (contains ~affix:"Published runs" html);
    Alcotest.(check bool) "diff section (same label twice)" true
      (contains ~affix:"Run-to-run diff" html);
    Alcotest.(check bool) "first digest shown" true
      (contains ~affix:(String.sub d1 0 12) html);
    Alcotest.(check bool) "second digest shown" true
      (contains ~affix:(String.sub d2 0 12) html);
    Alcotest.(check bool) "panels reused" true
      (contains ~affix:"Outcome distribution" html
      || contains ~affix:"<svg" html)
  | Error e -> Alcotest.failf "render: %s" e);
  (* drift of a run against itself is zero everywhere *)
  match Html.load_run (Store.entry_dir ~root d1) with
  | Ok r ->
    Alcotest.(check (option (pair int int))) "self drift" (Some (0, 0))
      (History.drift r r)
  | Error e -> Alcotest.failf "load_run: %s" e

let test_history_empty () =
  let root = tmp_dir "history-empty" in
  Fsutil.mkdir_p root;
  match History.render ~root with
  | Ok html ->
    Alcotest.(check bool) "empty-state page" true
      (contains ~affix:"No published runs" html)
  | Error e -> Alcotest.failf "render: %s" e

(* ---- HTTP plumbing ---- *)

let test_http_request_parse () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let body = "{\"benchmark\":\"Backprop\"}" in
  Http.write_all a
    (Fmt.str
       "POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Type: \
        application/json\r\nLast-Event-ID: 7\r\nContent-Length: %d\r\n\r\n%s"
       (String.length body) body);
  Unix.close a;
  (match Http.read_request b with
  | Ok req ->
    Alcotest.(check string) "method" "POST" req.Http.meth;
    Alcotest.(check string) "path" "/jobs" req.Http.path;
    Alcotest.(check string) "body" body req.Http.body;
    Alcotest.(check (option string)) "case-insensitive header" (Some "7")
      (Http.header_value "Last-Event-ID" req.Http.headers)
  | Error e -> Alcotest.failf "parse: %s" e);
  Unix.close b

(* A client that connects and sends nothing: the receive timeout must
   surface as a parse error, not an exception out of [read_request] —
   an uncaught EAGAIN here used to take down the whole daemon. *)
let test_http_silent_client () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.setsockopt_float b Unix.SO_RCVTIMEO 0.2;
  (match Http.read_request b with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "silent client must not parse");
  Unix.close a;
  Unix.close b

(* Unbounded header bytes must be rejected, not buffered forever. *)
let test_http_head_cap () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Http.write_all a "GET / HTTP/1.1\r\n";
  (* properly terminated on purpose: the cap must trip on the bytes
     themselves, not rely on the parser never finding the blank line *)
  Http.write_all a ("X-Flood: " ^ String.make (80 * 1024) 'a' ^ "\r\n\r\n");
  Unix.close a;
  (match Http.read_request b with
  | Error e ->
    Alcotest.(check bool) "head cap named" true (contains ~affix:"exceeds" e)
  | Ok _ -> Alcotest.fail "oversized head must not parse");
  Unix.close b

(* ---- job specs ---- *)

let test_spec_roundtrip () =
  (* minimal submission: everything but the benchmark defaults *)
  (match Spec.of_string "{\"benchmark\":\"Backprop\"}" with
  | Ok s ->
    Alcotest.(check string) "technique default" "raw" s.Spec.technique;
    Alcotest.(check int) "samples default" 400 s.Spec.samples;
    Alcotest.(check int) "shards default" 4 s.Spec.shards;
    Alcotest.(check bool) "traced default" true s.Spec.traced;
    let s' =
      match Spec.of_string (Spec.to_string s) with
      | Ok v -> v
      | Error e -> Alcotest.failf "reparse: %s" e
    in
    Alcotest.(check bool) "canonical round-trip" true (s = s')
  | Error e -> Alcotest.failf "parse: %s" e);
  (match Spec.of_string "{}" with
  | Error e ->
    Alcotest.(check bool) "missing benchmark named" true
      (contains ~affix:"benchmark" e)
  | Ok _ -> Alcotest.fail "benchmark must be required");
  match
    Result.bind (Spec.of_string "{\"benchmark\":\"nonesuch\"}") Spec.resolve
  with
  | Error e ->
    Alcotest.(check bool) "unknown benchmark rejected" true
      (contains ~affix:"nonesuch" e)
  | Ok _ -> Alcotest.fail "unknown benchmark must not resolve"

(* ---- resolve memo ---- *)

(* A resubmitted spec, and a spec that differs only in seed, samples,
   shards or traced mode, reuse the physically same prepared target —
   no second golden walk — and get the manifest a fresh resolve makes.
   The engine is part of the key, the least recently used workload is
   the one evicted, and validation failures never reach the table. *)
let test_resolve_memo () =
  let spec ?(technique = "raw") ?(engine = "ckpt-4096") () =
    { Spec.benchmark = "kNN"; technique; samples = 20; seed = 1L;
      shards = 2; fault_bits = 1; scope = "original"; traced = false;
      engine }
  in
  let memo = Spec.memo ~capacity:2 in
  let get s =
    match Spec.resolve_memo memo s with
    | Ok r -> r
    | Error e -> Alcotest.failf "resolve_memo: %s" e
  in
  let counts () = (Spec.memo_hits memo, Spec.memo_misses memo) in
  let walks (r : Spec.resolved) = (F.phases r.Spec.target).F.ph_walks in
  let a = spec () in
  let r1 = get a in
  Alcotest.(check (pair int int)) "first resolve builds" (0, 1) (counts ());
  let r2 = get a in
  Alcotest.(check bool) "resubmission reuses the target" true
    (r2.Spec.target == r1.Spec.target);
  let variant = { a with seed = 7L; samples = 30; shards = 3; traced = true } in
  let r3 = get variant in
  Alcotest.(check bool) "new seed/samples/shards reuse the target" true
    (r3.Spec.target == r1.Spec.target);
  Alcotest.(check int) "no new golden walk" 1 (walks r3);
  Alcotest.(check (pair int int)) "two hits" (2, 1) (counts ());
  (match Spec.resolve variant with
  | Error e -> Alcotest.failf "resolve: %s" e
  | Ok fresh ->
    Alcotest.(check string) "memo manifest = fresh manifest"
      (Json.to_string (Manifest.to_json fresh.Spec.manifest))
      (Json.to_string (Manifest.to_json r3.Spec.manifest));
    Alcotest.(check bool) "fresh resolve builds its own target" false
      (fresh.Spec.target == r1.Spec.target));
  let p1 = get (spec ~engine:"pooled" ()) in
  Alcotest.(check bool) "engine is part of the key" false
    (p1.Spec.target == r1.Spec.target);
  Alcotest.(check string) "pooled manifest" "pooled"
    p1.Spec.manifest.Manifest.engine;
  (* table [pooled; a]: touching [a] leaves pooled least recently used,
     so a third workload evicts it *)
  ignore (get a : Spec.resolved);
  ignore (get (spec ~technique:"ir-eddi" ()) : Spec.resolved);
  Alcotest.(check (pair int int)) "before eviction probe" (3, 3) (counts ());
  Alcotest.(check bool) "recently used entry kept" true
    ((get a).Spec.target == r1.Spec.target);
  Alcotest.(check bool) "least recently used entry evicted" false
    ((get (spec ~engine:"pooled" ())).Spec.target == p1.Spec.target);
  Alcotest.(check (pair int int)) "eviction cost a build" (4, 4) (counts ());
  (* a spec that fails validation never reaches the table *)
  (match Spec.resolve_memo memo { a with benchmark = "nonesuch" } with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown benchmark must not resolve");
  (match Spec.resolve_memo memo { a with shards = 0 } with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "zero shards must not resolve");
  Alcotest.(check (pair int int)) "failures leave the counters" (4, 4)
    (counts ())

module Lru = Ferrum_serve.Lru

(* Failed builds are returned, never stored: the next lookup builds
   again.  Recency decides eviction. *)
let test_lru () =
  let t = Lru.create ~capacity:2 in
  let builds = ref 0 in
  let build v () =
    incr builds;
    v
  in
  Alcotest.(check bool) "failure returned" true
    (Lru.find_or_add t "x" (build (Error "boom")) = Error "boom");
  Alcotest.(check bool) "failure not cached" true
    (Lru.find_or_add t "x" (build (Error "again")) = Error "again");
  Alcotest.(check int) "each failure built" 2 !builds;
  Alcotest.(check bool) "nothing stored" true
    (Lru.find_or_add t "x" (build (Ok 1)) = Ok 1);
  ignore (Lru.find_or_add t "y" (build (Ok 2)));
  Alcotest.(check bool) "hit returns the stored value" true
    (Lru.find_or_add t "x" (build (Ok 9)) = Ok 1);
  ignore (Lru.find_or_add t "z" (build (Ok 3)));
  Alcotest.(check bool) "recently used x kept" true
    (Lru.find_or_add t "x" (build (Ok 9)) = Ok 1);
  Alcotest.(check bool) "least recently used y evicted" true
    (Lru.find_or_add t "y" (build (Ok 8)) = Ok 8);
  Alcotest.(check int) "builds" 6 !builds;
  Alcotest.(check (pair int int)) "hits, misses" (2, 6)
    (Lru.hits t, Lru.misses t)

(* The runner's wake pipe: the read end stays quiet while the child
   lives and turns readable as soon as it exits, normally or killed. *)
let test_fork_watched () =
  let readable fd timeout =
    match Unix.select [ fd ] [] [] timeout with
    | [ _ ], _, _ -> true
    | _ -> false
  in
  let go_r, go_w = Unix.pipe () in
  let pid, wake =
    Daemon.fork_watched (fun () ->
        Unix.close go_w;
        ignore (Unix.read go_r (Bytes.create 1) 0 1 : int))
  in
  Unix.close go_r;
  Alcotest.(check bool) "quiet while the child runs" false (readable wake 0.2);
  Unix.close go_w;
  let t0 = Unix.gettimeofday () in
  Alcotest.(check bool) "exit wakes the reader" true (readable wake 10.0);
  Alcotest.(check bool) "promptly" true (Unix.gettimeofday () -. t0 < 2.0);
  ignore (Unix.waitpid [] pid);
  Unix.close wake;
  let pid, wake = Daemon.fork_watched (fun () -> Unix.sleepf 30.0) in
  Unix.kill pid Sys.sigkill;
  Alcotest.(check bool) "SIGKILL wakes the reader" true (readable wake 10.0);
  ignore (Unix.waitpid [] pid);
  Unix.close wake

(* ---- end-to-end daemon ---- *)

(* Fork a real daemon on a loopback auto-assigned port, drive it with
   the HTTP client: submit, stream the live SSE events through the
   decoder into Events.replay, resubmit for a cache hit, and check the
   served artifact bytes match across the two submissions. *)
let test_daemon_end_to_end () =
  let root = tmp_dir "daemon" in
  flush stdout;
  flush stderr;
  let pid =
    match Unix.fork () with
    | 0 ->
      (try Daemon.serve { Daemon.root; host = "127.0.0.1"; port = 0 }
       with _ -> ());
      Stdlib.exit 0
    | pid -> pid
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid))
    (fun () ->
      let deadline = Unix.gettimeofday () +. 10. in
      let rec wait_port () =
        if Sys.file_exists (Daemon.port_file root) then
          int_of_string (String.trim (Fsutil.read_file (Daemon.port_file root)))
        else if Unix.gettimeofday () > deadline then
          Alcotest.fail "daemon never wrote its port file"
        else begin
          Unix.sleepf 0.05;
          wait_port ()
        end
      in
      let port = wait_port () in
      let host = "127.0.0.1" in
      let get path =
        match Http.request ~host ~port ~meth:"GET" ~path () with
        | Ok r -> r
        | Error e -> Alcotest.failf "GET %s: %s" path e
      in
      (* bad spec is a 400, not a crash *)
      (match
         Http.request ~host ~port ~meth:"POST" ~path:"/jobs" ~body:"{}" ()
       with
      | Ok r -> Alcotest.(check int) "bad spec status" 400 r.Http.status
      | Error e -> Alcotest.failf "POST: %s" e);
      let spec =
        "{\"benchmark\":\"Backprop\",\"technique\":\"ferrum\",\
         \"samples\":8,\"shards\":2,\"traced\":0}"
      in
      let submit ?(body = spec) () =
        match
          Http.request ~host ~port ~meth:"POST" ~path:"/jobs" ~body ()
        with
        | Error e -> Alcotest.failf "submit: %s" e
        | Ok r -> (
          let record =
            match
              List.filter_map Json.of_string_opt
                (Metrics.lines_of_string r.Http.r_body)
            with
            | [ _header; record ] -> record
            | _ -> Alcotest.failf "response is not header + one record"
          in
          match
            ( Json.member "id" record,
              Json.member "state" record,
              Json.member "digest" record,
              Json.member "cached" record )
          with
          | Some (Json.Int id), Some (Json.Str state),
            Some (Json.Str digest), Some (Json.Int cached) ->
            (id, state, digest, cached <> 0, r.Http.status)
          | _ -> Alcotest.failf "job record incomplete: %s" r.Http.r_body)
      in
      let id, state, digest, cached, status = submit () in
      Alcotest.(check int) "fresh submit is 202" 202 status;
      Alcotest.(check bool) "fresh submit not cached" false cached;
      Alcotest.(check bool) "queued or already running" true
        (state = "pending" || state = "running");
      (* stream the live events until the end-of-stream comment *)
      let d = Sse.decoder () in
      let records = ref [] in
      (match
         Http.stream ~host ~port
           ~path:(Fmt.str "/jobs/%d/events" id)
           ~on_chunk:(fun chunk ->
             List.iter
               (fun (e : Sse.event) -> records := e.Sse.data :: !records)
               (Sse.feed d chunk))
           ()
       with
      | Ok 200 -> ()
      | Ok s -> Alcotest.failf "events stream status %d" s
      | Error e -> Alcotest.failf "events stream: %s" e);
      (match Events.replay (List.rev !records) with
      | Ok (tally, _clock) ->
        Alcotest.(check int) "live stream replays all samples" 8
          (Events.tally_total tally)
      | Error e -> Alcotest.failf "live stream does not replay: %s" e);
      (* the job settles as done *)
      let rec wait_done tries =
        let r = get (Fmt.str "/jobs/%d" id) in
        if contains ~affix:"\"state\":\"done\"" r.Http.r_body then ()
        else if tries = 0 then
          Alcotest.failf "job never settled: %s" r.Http.r_body
        else begin
          Unix.sleepf 0.2;
          wait_done (tries - 1)
        end
      in
      wait_done 100;
      let records_1 = (get (Fmt.str "/runs/%s/records" digest)).Http.r_body in
      (* resubmitting the identical spec is a cache hit served from the
         store: done immediately, same digest, byte-identical bytes *)
      let id2, state2, digest2, cached2, status2 = submit () in
      Alcotest.(check int) "cache hit is 200" 200 status2;
      Alcotest.(check bool) "cache hit flagged" true cached2;
      Alcotest.(check string) "cache hit is done" "done" state2;
      Alcotest.(check string) "same digest" digest digest2;
      Alcotest.(check bool) "new job id" true (id2 <> id);
      let records_2 = (get (Fmt.str "/runs/%s/records" digest)).Http.r_body in
      Alcotest.(check string) "served records byte-identical" records_1
        records_2;
      (match
         Metrics.validate_lines ~kind:F.metrics_kind
           ~record_fields:F.record_fields
           (Metrics.lines_of_string records_1)
       with
      | Ok n -> Alcotest.(check int) "served records validate" 8 n
      | Error e -> Alcotest.failf "served records invalid: %s" e);
      (* cached job's event stream comes from the store and replays *)
      let d2 = Sse.decoder () in
      let cached_records = ref [] in
      (match
         Http.stream ~host ~port
           ~path:(Fmt.str "/jobs/%d/events" id2)
           ~on_chunk:(fun chunk ->
             List.iter
               (fun (e : Sse.event) -> cached_records := e.Sse.data :: !cached_records)
               (Sse.feed d2 chunk))
           ()
       with
      | Ok 200 -> ()
      | Ok s -> Alcotest.failf "cached events status %d" s
      | Error e -> Alcotest.failf "cached events: %s" e);
      (match Events.replay (List.rev !cached_records) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "cached stream does not replay: %s" e);
      (* queue and metricz endpoints validate as ferrum.jobs.v1 *)
      List.iter
        (fun path ->
          match
            Metrics.validate_lines ~kind:Queue.kind
              ~record_fields:Queue.fields
              (Metrics.lines_of_string (get path).Http.r_body)
          with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "%s invalid: %s" path e)
        [ "/jobs"; "/metricz" ];
      (* text exposition stays behind ?format=text *)
      let text = get "/metricz?format=text" in
      Alcotest.(check int) "metricz text status" 200 text.Http.status;
      List.iter
        (fun affix ->
          Alcotest.(check bool)
            (Fmt.str "metricz text has %S" affix)
            true
            (contains ~affix text.Http.r_body))
        [ "# TYPE ferrum_http_requests_total counter";
          "ferrum_jobs{state=\"done\"}";
          "# TYPE ferrum_job_seconds histogram";
          "ferrum_job_seconds_bucket{le=\"+Inf\"}"; "ferrum_job_seconds_count" ];
      (* the stored run carries a stitched trace, and a submission
         under a client traceparent adopts the caller's trace id with
         the job span parented under the caller's span *)
      let client_trace = "00112233445566aa" in
      let spec3 =
        "{\"benchmark\":\"Backprop\",\"technique\":\"ferrum\",\
         \"samples\":6,\"shards\":2,\"traced\":0}"
      in
      let id3, digest3 =
        match
          Http.request ~host ~port ~meth:"POST" ~path:"/jobs"
            ~headers:
              [ ("traceparent",
                 Trace.to_traceparent ~trace:client_trace ~span:"0") ]
            ~body:spec3 ()
        with
        | Error e -> Alcotest.failf "traced submit: %s" e
        | Ok r -> (
          let record =
            match
              List.filter_map Json.of_string_opt
                (Metrics.lines_of_string r.Http.r_body)
            with
            | [ _header; record ] -> record
            | _ -> Alcotest.failf "response is not header + one record"
          in
          match (Json.member "id" record, Json.member "digest" record) with
          | Some (Json.Int id), Some (Json.Str dg) -> (id, dg)
          | _ -> Alcotest.failf "job record incomplete: %s" r.Http.r_body)
      in
      let rec wait_done3 tries =
        let r = get (Fmt.str "/jobs/%d" id3) in
        if contains ~affix:"\"state\":\"done\"" r.Http.r_body then ()
        else if tries = 0 then
          Alcotest.failf "traced job never settled: %s" r.Http.r_body
        else begin
          Unix.sleepf 0.2;
          wait_done3 (tries - 1)
        end
      in
      wait_done3 100;
      let trace_doc = get (Fmt.str "/runs/%s/trace" digest3) in
      Alcotest.(check int) "trace artifact status" 200 trace_doc.Http.status;
      let trace_lines = Metrics.lines_of_string trace_doc.Http.r_body in
      (match
         Metrics.validate_lines ~kind:Trace.kind ~record_fields:Trace.fields
           trace_lines
       with
      | Ok n -> Alcotest.(check bool) "trace has records" true (n > 0)
      | Error e -> Alcotest.failf "served trace invalid: %s" e);
      let records3 =
        match trace_lines with _hdr :: r -> r | [] -> []
      in
      (match Trace.validate_stitched records3 with
      | Error e -> Alcotest.failf "served trace does not stitch: %s" e
      | Ok root -> (
        match Trace.rows_of_lines records3 with
        | Error e -> Alcotest.failf "trace rows: %s" e
        | Ok rows ->
          let spans = Trace.spans_of_rows rows in
          let root_span =
            List.find (fun s -> s.Trace.sp_id = root) spans
          in
          Alcotest.(check string) "job span is the document root" "job"
            root_span.Trace.sp_name;
          Alcotest.(check string) "rooted under the client's span" "0"
            root_span.Trace.sp_parent;
          List.iter
            (fun n ->
              Alcotest.(check bool)
                (Fmt.str "trace has %s span" n)
                true
                (List.exists (fun s -> s.Trace.sp_name = n) spans))
            [ "job"; "queue-wait"; "resolve"; "campaign"; "shard" ]));
      (* the client's trace id is adopted verbatim in every row *)
      Alcotest.(check bool) "client trace id adopted" true
        (List.for_all (contains ~affix:client_trace) records3);
      (* kNN under hybrid has a golden profile whose sums print as
         integers: its manifest must still round-trip, so the job is
         published under the digest it was submitted under and a
         resubmission is a cache hit *)
      let hybrid =
        "{\"benchmark\":\"kNN\",\"technique\":\"hybrid\",\
         \"samples\":4,\"shards\":1,\"traced\":0}"
      in
      let idh, _, digesth, cachedh, _ = submit ~body:hybrid () in
      Alcotest.(check bool) "hybrid submit not cached" false cachedh;
      let rec wait_published tries =
        let r = get (Fmt.str "/jobs/%d" idh) in
        if contains ~affix:"\"state\":\"done\"" r.Http.r_body then r.Http.r_body
        else if tries = 0 then
          Alcotest.failf "hybrid job never settled: %s" r.Http.r_body
        else begin
          Unix.sleepf 0.2;
          wait_published (tries - 1)
        end
      in
      Alcotest.(check bool) "published under the submitted digest" true
        (contains
           ~affix:(Fmt.str "\"digest\":\"%s\"" digesth)
           (wait_published 100));
      let _, stateh2, digesth2, cachedh2, _ = submit ~body:hybrid () in
      Alcotest.(check bool) "hybrid resubmission cached" true cachedh2;
      Alcotest.(check string) "hybrid resubmission done" "done" stateh2;
      Alcotest.(check string) "hybrid resubmission digest" digesth digesth2;
      (* every resubmission above resolved from the memo *)
      let metricz = (get "/metricz").Http.r_body in
      List.iter
        (fun affix ->
          Alcotest.(check bool)
            (Fmt.str "metricz header has %S" affix)
            true (contains ~affix metricz))
        [ "\"resolve_memo_hits\":"; "\"resolve_memo_misses\":2" ];
      (* the wall sidecar is served too *)
      Alcotest.(check int) "trace-wall artifact status" 200
        (get (Fmt.str "/runs/%s/trace-wall" digest3)).Http.status;
      (* history page lists the run *)
      Alcotest.(check bool) "history names the digest" true
        (contains ~affix:(String.sub digest 0 12)
           (get "/history").Http.r_body))

let () =
  Alcotest.run "serve"
    [
      ( "sse",
        [
          Alcotest.test_case "chunk-boundary independence" `Quick
            test_sse_chunking;
          Alcotest.test_case "multi-line data joins" `Quick
            test_sse_multiline_data;
          Alcotest.test_case "crlf and field variants" `Quick test_sse_crlf;
          Alcotest.test_case "Last-Event-ID resume replays" `Quick
            test_sse_resume_replay;
        ] );
      ( "events",
        [ Alcotest.test_case "heartbeat ETA clamp" `Quick test_eta_clamp ] );
      ( "store",
        [
          Alcotest.test_case "cache hit, byte identity" `Quick
            test_store_cache_hit;
          Alcotest.test_case "corrupt entries rejected" `Quick
            test_store_corrupt_rejected;
          Alcotest.test_case "index keeps publication order" `Quick
            test_store_index_order;
        ] );
      ( "queue",
        [
          Alcotest.test_case "persistence and demotion" `Quick
            test_queue_persistence;
        ] );
      ( "fsutil",
        [ Alcotest.test_case "copy_tree and rename" `Quick test_fsutil_tree_ops ] );
      ( "history",
        [
          Alcotest.test_case "weighted percentiles" `Quick
            test_history_percentile;
          Alcotest.test_case "render with diffs" `Quick test_history_render;
          Alcotest.test_case "empty store" `Quick test_history_empty;
        ] );
      ( "http",
        [
          Alcotest.test_case "request parsing" `Quick test_http_request_parse;
          Alcotest.test_case "silent client times out" `Quick
            test_http_silent_client;
          Alcotest.test_case "request head cap" `Quick test_http_head_cap;
        ] );
      ( "spec",
        [ Alcotest.test_case "defaults and round-trip" `Quick test_spec_roundtrip;
          Alcotest.test_case "resolve memo" `Quick test_resolve_memo;
          Alcotest.test_case "lru keeps successes only" `Quick test_lru ] );
      ( "daemon",
        [
          Alcotest.test_case "runner exit wakes the loop" `Quick
            test_fork_watched;
          Alcotest.test_case "end-to-end over loopback" `Slow
            test_daemon_end_to_end;
        ] );
    ]
