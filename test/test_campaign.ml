(* Tests for the campaign orchestrator: deterministic sharding, the
   fork-pool runner's byte-identity with sequential campaigns, the
   typed event stream, ordered-log reassembly under worker death, and
   replayable manifests. *)

open Ferrum_asm
module Machine = Ferrum_machine.Machine
module F = Ferrum_faultsim.Faultsim
module Rng = Ferrum_faultsim.Rng
module Json = Ferrum_telemetry.Json
module Metrics = Ferrum_telemetry.Metrics
module Events = Ferrum_telemetry.Events
module Shard = Ferrum_campaign.Shard
module Runner = Ferrum_campaign.Runner
module Manifest = Ferrum_campaign.Manifest
module Store = Ferrum_campaign.Store
module Technique = Ferrum_eddi.Technique
module Pipeline = Ferrum_eddi.Pipeline
module Catalog = Ferrum_workloads.Catalog

(* Same protected-looking fixture the faultsim/telemetry tests use:
   one original site, a duplicate and a checker, so campaigns over it
   are instant and produce detected outcomes. *)
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

(* The in-process reference: record lines, counts and (traced) map of
   the {!Campaign_ref} loop, which every runner campaign must reproduce
   byte for byte. *)
let sequential ~traced ~seed ~samples img =
  let r = Campaign_ref.run ~traced ~seed ~samples (F.prepare img) in
  ( Campaign_ref.lines r,
    Campaign_ref.counts r,
    if traced then Some r.Campaign_ref.vulnmap else None )

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  go 0

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let tmp_dir name =
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Fmt.str "ferrum-campaign-%d-%s" (Unix.getpid ()) name)
  in
  rm_rf d;
  d

(* ---- sharding ---- *)

let test_split_at () =
  let seed = 123L in
  let root = Rng.create ~seed in
  for k = 0 to 9 do
    let seq = Rng.next_int64 (Rng.split root) in
    let direct = Rng.next_int64 (Rng.split_at ~seed k) in
    Alcotest.(check int64) (Fmt.str "stream %d first draw" k) seq direct
  done;
  match Rng.split_at ~seed (-1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative index must be rejected"

let test_plan () =
  List.iter
    (fun (shards, samples) ->
      let ranges = Shard.plan ~shards ~samples in
      let k = Array.length ranges in
      Alcotest.(check bool)
        (Fmt.str "clamped count %d/%d" shards samples)
        true
        (k >= 1 && k <= min shards samples);
      (* contiguous cover of [0, samples) *)
      Alcotest.(check int) "starts at 0" 0 ranges.(0).Shard.lo;
      Alcotest.(check int) "ends at samples" samples ranges.(k - 1).Shard.hi;
      for i = 1 to k - 1 do
        Alcotest.(check int)
          (Fmt.str "contiguous at %d" i)
          ranges.(i - 1).Shard.hi ranges.(i).Shard.lo
      done;
      (* near-equal: sizes differ by at most one *)
      let sizes =
        Array.to_list (Array.map Shard.range_samples ranges)
      in
      let mn = List.fold_left min max_int sizes
      and mx = List.fold_left max 0 sizes in
      Alcotest.(check bool) "near-equal" true (mx - mn <= 1))
    [ (1, 10); (3, 10); (4, 4); (7, 5); (16, 100) ];
  Alcotest.(check int) "no samples, no shards" 0
    (Array.length (Shard.plan ~shards:4 ~samples:0))

(* ---- runner byte-identity ---- *)

let samples = 48
let seed = 7L

let test_inject_identity () =
  let img = Machine.load (checked_program ()) in
  let target = F.prepare img in
  let ref_lines, ref_counts, _ = sequential ~traced:false ~seed ~samples img in
  List.iter
    (fun k ->
      let r =
        Runner.run ~mode:Runner.Inject ~shards:k ~seed ~samples target
      in
      Alcotest.(check (list string))
        (Fmt.str "record lines, %d shards" k)
        ref_lines r.Runner.record_lines;
      Alcotest.(check bool)
        (Fmt.str "counts, %d shards" k)
        true
        (r.Runner.counts = ref_counts))
    [ 1; 2; 3; 7 ]

let test_vulnmap_identity () =
  let img = Machine.load (checked_program ()) in
  let target = F.prepare img in
  let ref_lines, ref_counts, ref_v =
    sequential ~traced:true ~seed ~samples img
  in
  let ref_v = Option.get ref_v in
  let ref_rows = List.map Json.to_string (F.vulnmap_rows ref_v) in
  List.iter
    (fun k ->
      let r =
        Runner.run ~mode:Runner.Traced ~shards:k ~seed ~samples target
      in
      let v = Option.get r.Runner.vulnmap in
      Alcotest.(check (list string))
        (Fmt.str "record lines, %d shards" k)
        ref_lines r.Runner.record_lines;
      Alcotest.(check (list string))
        (Fmt.str "vulnmap rows, %d shards" k)
        ref_rows
        (List.map Json.to_string (F.vulnmap_rows v));
      Alcotest.(check bool)
        (Fmt.str "latencies, %d shards" k)
        true
        (v.F.v_latencies = ref_v.F.v_latencies);
      Alcotest.(check bool)
        (Fmt.str "escapes, %d shards" k)
        true
        (v.F.v_escapes = ref_v.F.v_escapes);
      Alcotest.(check bool)
        (Fmt.str "counts, %d shards" k)
        true
        (r.Runner.counts = ref_counts))
    [ 1; 2; 3; 7 ]

(* A real workload under a real technique, through the worker pool. *)
let test_workload_identity () =
  let entry = List.hd Catalog.all in
  let res = Pipeline.protect Technique.Ferrum (entry.Catalog.build ()) in
  let img = Machine.load res.Pipeline.program in
  let target = F.prepare img in
  let n = 24 in
  let ref_lines, ref_counts, _ =
    sequential ~traced:false ~seed:11L ~samples:n img
  in
  let r =
    Runner.run ~mode:Runner.Inject ~shards:4 ~seed:11L ~samples:n target
  in
  Alcotest.(check (list string)) "record lines" ref_lines r.Runner.record_lines;
  Alcotest.(check bool) "counts" true (r.Runner.counts = ref_counts)

(* ---- events ---- *)

let test_event_roundtrip () =
  let tally =
    { Events.benign = 3; sdc = 1; detected = 7; crash = 2; timeout = 0 }
  in
  let bodies =
    [ Events.Campaign_started { shards = 4; samples = 100 };
      Events.Shard_started { lo = 25; hi = 50 };
      Events.Progress
        { done_ = 13; total = 25; tally; clock = 991; spent = 38;
          budget = 100; hw = 0.125 };
      Events.Shard_finished { done_ = 25; total = 25; tally; clock = 1800 };
      Events.Shard_retry { reason = "worker exited 66 after 2/25 samples" };
      Events.Campaign_finished { total = 100; tally; clock = 7200 } ]
  in
  List.iteri
    (fun i body ->
      let e = { Events.seq = i; shard = 1; attempt = 0; body } in
      match Events.of_json (Events.to_json e) with
      | Ok e' ->
        Alcotest.(check bool)
          (Fmt.str "round-trip %s" (Events.body_name body))
          true (e = e')
      | Error msg -> Alcotest.failf "round-trip failed: %s" msg)
    bodies;
  (* the serialized form validates against the schema's field list *)
  let lines =
    Json.to_string (Events.header [ ("benchmark", Json.Str "x") ])
    :: List.mapi
         (fun i body ->
           Json.to_string
             (Events.to_json { Events.seq = i; shard = 0; attempt = 0; body }))
         bodies
  in
  (match
     Metrics.validate_lines ~kind:Events.kind ~record_fields:Events.fields
       lines
   with
  | Ok n -> Alcotest.(check int) "validated records" (List.length bodies) n
  | Error e -> Alcotest.failf "schema validation failed: %s" e);
  (* a broken record is reported with its line number *)
  match
    Metrics.validate_lines ~kind:Events.kind ~record_fields:Events.fields
      (List.filteri (fun i _ -> i < 2) lines @ [ "{\"event\":1}" ])
  with
  | Error e ->
    Alcotest.(check bool) "line number in error" true
      (contains ~affix:"line 3" e)
  | Ok _ -> Alcotest.fail "broken record must not validate"

let test_replay () =
  let target = fixture_target () in
  let r = Runner.run ~mode:Runner.Inject ~shards:3 ~seed ~samples target in
  List.iteri
    (fun i (e : Events.t) ->
      Alcotest.(check int) (Fmt.str "seq %d" i) i e.Events.seq)
    r.Runner.events;
  let lines =
    List.map (fun e -> Json.to_string (Events.to_json e)) r.Runner.events
  in
  match Events.replay lines with
  | Error e -> Alcotest.failf "replay failed: %s" e
  | Ok (tally, clock) ->
    Alcotest.(check int) "clock" r.Runner.clock clock;
    Alcotest.(check bool) "tally" true
      (tally = Runner.tally_of_counts r.Runner.counts)

(* ---- worker death and ordered-log reassembly ---- *)

let test_worker_death () =
  let img = Machine.load (checked_program ()) in
  let target = F.prepare img in
  let ref_lines, ref_counts, _ = sequential ~traced:false ~seed ~samples img in
  let sabotage ~shard ~attempt =
    if shard = 1 && attempt = 0 then Some 2 else None
  in
  let r =
    Runner.run ~mode:Runner.Inject ~shards:3 ~seed ~samples ~sabotage target
  in
  Alcotest.(check int) "one retry" 1 r.Runner.retried;
  Alcotest.(check (list string)) "records unaffected by the death" ref_lines
    r.Runner.record_lines;
  Alcotest.(check bool) "counts unaffected" true (r.Runner.counts = ref_counts);
  let retries =
    List.filter
      (fun (e : Events.t) ->
        match e.Events.body with Events.Shard_retry _ -> true | _ -> false)
      r.Runner.events
  in
  (match retries with
  | [ e ] ->
    Alcotest.(check int) "retry marker on shard 1" 1 e.Events.shard;
    Alcotest.(check int) "retry marker attempt 0" 0 e.Events.attempt
  | l -> Alcotest.failf "expected one retry marker, got %d" (List.length l));
  (* the reassembled log is still contiguous and replayable *)
  let lines =
    List.map (fun e -> Json.to_string (Events.to_json e)) r.Runner.events
  in
  match Events.replay lines with
  | Error e -> Alcotest.failf "replay after death failed: %s" e
  | Ok (tally, _) ->
    Alcotest.(check bool) "replayed tally" true
      (tally = Runner.tally_of_counts r.Runner.counts)

(* Ways a worker can garble its 3rd sample's wire line, each with what
   the retry's reason must name: a line with an unknown tag, an event
   that does not parse, a span row cut short, a done marker before the
   rest of the stream, a done marker with a payload, a truncated sample
   line, a separator moved from between two fields into one, and a
   dropped line, which puts the next sample out of order. *)
let garbles =
  let move_separator l =
    (* "s\t<sample>\t<class>..." -> "s\t<sample><class>\t..." *)
    let i = String.index_from l 2 '\t' in
    let j = String.index_from l (i + 1) '\t' in
    String.sub l 0 i
    ^ String.sub l (i + 1) (j - i - 1)
    ^ "\t"
    ^ String.sub l (j + 1) (String.length l - j - 1)
  in
  [ ("unknown tag", "unknown tag", fun _ -> "x\t{}");
    ("bad event", "missing field", fun _ -> "e\t{\"event\":\"bogus\"}");
    ( "cut span row",
      "trace row",
      fun l -> l ^ "\nt\t{\"row\":\"span\",\"name\":\"sh" );
    ( "line after the done marker",
      "after the done marker",
      fun l -> l ^ "\nd\t" );
    ( "done marker with a payload",
      "done marker with a payload",
      fun _ -> "d\tx" );
    ( "truncated sample line",
      "sample line",
      fun l -> String.sub l 0 (String.length l - 9) );
    ("misplaced separator", "sample line", move_separator);
    ("out-of-order sample", "was due", fun _ -> "") ]

(* A malformed protocol line must not abort the campaign (or leak the
   other workers): the offending worker is killed and its shard retried
   through the ordinary death path. *)
let test_protocol_error () =
  let img = Machine.load (checked_program ()) in
  let target = F.prepare img in
  let ref_lines, ref_counts, _ = sequential ~traced:false ~seed ~samples img in
  List.iter
    (fun (what, names, garbled) ->
      let garble ~shard ~attempt =
        if shard = 1 && attempt = 0 then Some (2, garbled) else None
      in
      let r =
        Runner.run ~mode:Runner.Inject ~shards:3 ~seed ~samples ~garble target
      in
      Alcotest.(check int) (what ^ ": one retry") 1 r.Runner.retried;
      Alcotest.(check (list string)) (what ^ ": records unaffected") ref_lines
        r.Runner.record_lines;
      Alcotest.(check bool) (what ^ ": counts unaffected") true
        (r.Runner.counts = ref_counts);
      match
        List.filter_map
          (fun (e : Events.t) ->
            match e.Events.body with
            | Events.Shard_retry { reason } -> Some reason
            | _ -> None)
          r.Runner.events
      with
      | [ reason ] ->
        Alcotest.(check bool) (what ^ ": reason names the protocol error")
          true
          (contains ~affix:"protocol error" reason
          && contains ~affix:names reason)
      | l ->
        Alcotest.failf "%s: expected one retry marker, got %d" what
          (List.length l))
    garbles

(* A corrupt part file is rejected by the resume loader, so the shard
   re-runs and the merged output is unchanged. *)
let test_corrupt_part_rejected () =
  let target = fixture_target () in
  let reference =
    Runner.run ~mode:Runner.Inject ~shards:3 ~seed ~samples target
  in
  let dir = tmp_dir "corrupt" in
  ignore
    (Runner.run ~mode:Runner.Inject ~shards:3 ~seed ~samples ~part_dir:dir
       target);
  let part = Filename.concat dir "shard-1.jsonl" in
  let oc = open_out part in
  output_string oc "x\tbogus\n";
  close_out oc;
  let resumed =
    Runner.run ~mode:Runner.Inject ~shards:3 ~seed ~samples ~part_dir:dir
      target
  in
  Alcotest.(check (list string)) "records unaffected"
    reference.Runner.record_lines resumed.Runner.record_lines;
  rm_rf dir

let test_resume_from_parts () =
  let target = fixture_target () in
  let dir = tmp_dir "resume" in
  let first =
    Runner.run ~mode:Runner.Inject ~shards:3 ~seed ~samples ~part_dir:dir
      target
  in
  (* with every shard preloaded from its part file, no worker forks at
     all: a sabotage that would kill any worker instantly cannot fire *)
  let resumed =
    Runner.run ~mode:Runner.Inject ~shards:3 ~seed ~samples ~part_dir:dir
      ~retries:0
      ~sabotage:(fun ~shard:_ ~attempt:_ -> Some 0)
      target
  in
  Alcotest.(check (list string)) "resumed records" first.Runner.record_lines
    resumed.Runner.record_lines;
  Alcotest.(check bool) "resumed counts" true
    (first.Runner.counts = resumed.Runner.counts);
  let ser r =
    List.map (fun e -> Json.to_string (Events.to_json e)) r.Runner.events
  in
  Alcotest.(check (list string)) "resumed canonical log" (ser first)
    (ser resumed);
  rm_rf dir

(* A part file holds the attempt's wire lines verbatim, each tag once
   it has crossed the pipe: the sample records, event JSON and span and
   wall rows the parent absorbed from it, ending with the done marker. *)
let test_wire_tags () =
  let target = fixture_target () in
  let dir = tmp_dir "tags" in
  let r =
    Runner.run ~mode:Runner.Inject ~shards:3 ~seed ~samples ~part_dir:dir
      target
  in
  let lines = Metrics.read_lines (Filename.concat dir "shard-1.jsonl") in
  let tagged tag =
    List.filter_map
      (fun l ->
        if l.[0] = tag && l.[1] = '\t' then
          Some (String.sub l 2 (String.length l - 2))
        else None)
      lines
  in
  let records =
    List.map
      (fun p -> List.nth (String.split_on_char '\t' p) 7)
      (tagged 's')
  in
  Alcotest.(check (list string)) "s: the shard's records"
    (List.filteri (fun i _ -> i >= 16 && i < 32) r.Runner.record_lines)
    records;
  Alcotest.(check (list string)) "e: the shard's events"
    (List.filter_map
       (fun (e : Events.t) ->
         if e.Events.shard = 1 then
           Some (Json.to_string (Events.to_json { e with Events.seq = 0 }))
         else None)
       r.Runner.events)
    (tagged 'e');
  let subset what rows all =
    Alcotest.(check bool) what true
      (rows <> [] && List.for_all (fun row -> List.mem row all) rows)
  in
  subset "t: rows of the stitched trace" (tagged 't') r.Runner.trace_spans;
  subset "w: rows of the wall sidecar" (tagged 'w') r.Runner.trace_walls;
  Alcotest.(check string) "d: last" "d\t"
    (List.nth lines (List.length lines - 1));
  Alcotest.(check int) "no other tag" (List.length lines)
    (List.length (tagged 's') + List.length (tagged 'e')
    + List.length (tagged 't') + List.length (tagged 'w') + 1);
  rm_rf dir

(* A part file in the older wire format, where every line but a sample
   was a JSON envelope tagged by its "t" field, does not replay: its
   shard re-runs (no other worker may run, or the campaign fails) and
   its part is rewritten in the current format. *)
let test_envelope_part_reruns () =
  let target = fixture_target () in
  let dir = tmp_dir "envelope" in
  let first =
    Runner.run ~mode:Runner.Inject ~shards:3 ~seed ~samples ~part_dir:dir
      target
  in
  let part = Filename.concat dir "shard-1.jsonl" in
  let current = Metrics.read_lines part in
  let envelope l =
    let payload = String.sub l 2 (String.length l - 2) in
    match l.[0] with
    | 's' -> l
    | 'e' -> "{\"t\":\"ev\",\"ev\":" ^ payload ^ "}"
    | ('t' | 'w') as tag ->
      Json.to_string
        (Json.Obj
           [ ("t", Json.Str (if tag = 't' then "tr" else "tw"));
             ("l", Json.Str payload) ])
    | _ -> "{\"t\":\"done\"}"
  in
  let oc = open_out_bin part in
  List.iter (fun l -> output_string oc (envelope l ^ "\n")) current;
  close_out oc;
  let resumed =
    Runner.run ~mode:Runner.Inject ~shards:3 ~seed ~samples ~part_dir:dir
      ~retries:0
      ~sabotage:(fun ~shard ~attempt:_ -> if shard = 1 then None else Some 0)
      target
  in
  Alcotest.(check (list string)) "records unaffected"
    first.Runner.record_lines resumed.Runner.record_lines;
  Alcotest.(check int) "shard re-ran without a retry" 0 resumed.Runner.retried;
  Alcotest.(check (list string)) "part rewritten in the current format"
    (List.filter (fun l -> l.[0] = 's') current)
    (List.filter (fun l -> l.[0] = 's') (Metrics.read_lines part));
  Alcotest.(check bool) "no envelope left" true
    (List.for_all (fun l -> l.[0] <> '{') (Metrics.read_lines part));
  rm_rf dir

(* A worker killed mid-shard leaves nothing of its attempt: the retried
   shard's part holds the lines of a clean run (events differ only in
   their attempt number, wall rows only in their clock readings), and
   no .tmp remains, not even one a crashed runner left behind.  Without
   retries the shard has no part at all. *)
let test_killed_worker_no_part () =
  let target = fixture_target () in
  let clean_dir = tmp_dir "kill-clean" and dir = tmp_dir "kill" in
  ignore
    (Runner.run ~mode:Runner.Inject ~shards:3 ~seed ~samples
       ~part_dir:clean_dir target);
  let sabotage ~shard ~attempt =
    if shard = 1 && attempt = 0 then Some 5 else None
  in
  Ferrum_campaign.Fsutil.write_file
    (Filename.concat dir "shard-0.jsonl.tmp")
    "s\tstale\n";
  let r =
    Runner.run ~mode:Runner.Inject ~shards:3 ~seed ~samples ~part_dir:dir
      ~sabotage target
  in
  Alcotest.(check int) "one retry" 1 r.Runner.retried;
  let no_tmp what dir =
    Alcotest.(check (list string)) (what ^ ": no .tmp") []
      (List.filter
         (fun f -> Filename.check_suffix f ".tmp")
         (Array.to_list (Sys.readdir dir)))
  in
  no_tmp "retried" dir;
  let canon l =
    match l.[0] with
    | 'e' -> (
      match
        Json.of_string_opt (String.sub l 2 (String.length l - 2))
        |> Option.map Events.of_json
      with
      | Some (Ok e) ->
        "e\t" ^ Json.to_string (Events.to_json { e with Events.attempt = 0 })
      | _ -> l)
    | 'w' -> "w"
    | _ -> l
  in
  let part dir i =
    List.map canon
      (Metrics.read_lines (Filename.concat dir (Fmt.str "shard-%d.jsonl" i)))
  in
  List.iter
    (fun i ->
      Alcotest.(check (list string))
        (Fmt.str "shard %d: part = clean part" i)
        (part clean_dir i) (part dir i))
    [ 0; 1; 2 ];
  Alcotest.(check bool) "events carried the retry's attempt" true
    (List.exists
       (fun l -> contains ~affix:"\"attempt\":1" l)
       (Metrics.read_lines (Filename.concat dir "shard-1.jsonl")));
  let dir0 = tmp_dir "kill-no-retry" in
  (match
     Runner.run ~mode:Runner.Inject ~shards:3 ~seed ~samples ~part_dir:dir0
       ~sabotage ~retries:0 target
   with
  | _ -> Alcotest.fail "a shard out of retries must fail the campaign"
  | exception Failure _ -> ());
  Alcotest.(check bool) "no part for the failed shard" false
    (Sys.file_exists (Filename.concat dir0 "shard-1.jsonl"));
  no_tmp "failed" dir0;
  List.iter rm_rf [ clean_dir; dir; dir0 ]

let test_log_reproducible () =
  let target = fixture_target () in
  let run () =
    Runner.run ~mode:Runner.Inject ~shards:4 ~workers:2 ~seed ~samples target
  in
  let a = run () and b = run () in
  let ser r =
    List.map (fun e -> Json.to_string (Events.to_json e)) r.Runner.events
  in
  Alcotest.(check (list string))
    "two runs, byte-identical canonical logs" (ser a) (ser b)

(* ---- adaptive campaigns under crashes and resume ---- *)

(* A 3-round, 2-shard adaptive traced campaign over a real workload
   with many sites, so later rounds' allocations depend on earlier
   rounds' output.  Round r's shards run under global ids 2r and
   2r + 1. *)
let adaptive_target =
  lazy
    (let m = (Option.get (Catalog.find "kNN")).Catalog.build () in
     F.prepare (Machine.load (Pipeline.raw m).program))

let adaptive_run ?sabotage ?garble ?part_dir ?retries () =
  Runner.run ?sabotage ?garble ?part_dir ?retries
    ~policy:{ Runner.rounds = 3; target_ci = 0.0 }
    ~mode:Runner.Traced ~shards:2 ~seed ~samples:36
    (Lazy.force adaptive_target)

let ser_events r =
  List.map (fun e -> Json.to_string (Events.to_json e)) r.Runner.events

(* A recovered run's canonical log is the clean run's with retry
   markers spliced in and the successful attempt's number on the
   retried shard's events: drop the markers, zero the attempts and
   renumber. *)
let ser_events_without_retries r =
  ser_events
    {
      r with
      Runner.events =
        List.mapi
          (fun i e -> { e with Events.seq = i; attempt = 0 })
          (List.filter
             (fun (e : Events.t) ->
               match e.Events.body with
               | Events.Shard_retry _ -> false
               | _ -> true)
             r.Runner.events);
    }

let check_same_campaign ~what ?(events = ser_events) (clean : Runner.result)
    (r : Runner.result) =
  let rows r =
    List.map Json.to_string (F.vulnmap_rows (Option.get r.Runner.vulnmap))
  in
  Alcotest.(check (list string)) (what ^ ": records") clean.Runner.record_lines
    r.Runner.record_lines;
  Alcotest.(check (list string)) (what ^ ": stats") (Runner.stats_lines clean)
    (Runner.stats_lines r);
  Alcotest.(check (list string)) (what ^ ": events") (events clean) (events r);
  Alcotest.(check (list string)) (what ^ ": vulnmap") (rows clean) (rows r)

let retry_shards r =
  List.filter_map
    (fun (e : Events.t) ->
      match e.Events.body with
      | Events.Shard_retry _ -> Some (e.Events.shard, e.Events.attempt)
      | _ -> None)
    r.Runner.events

let test_adaptive_worker_death () =
  let clean = adaptive_run () in
  let sabotage ~shard ~attempt =
    if shard = 2 && attempt = 0 then Some 2 else None
  in
  let r = adaptive_run ~sabotage () in
  Alcotest.(check (list (pair int int))) "one retry, round 1 shard 0"
    [ (2, 0) ] (retry_shards r);
  check_same_campaign ~what:"killed in round 1"
    ~events:ser_events_without_retries clean r

let test_adaptive_protocol_error () =
  let clean = adaptive_run () in
  let garble ~shard ~attempt =
    if shard = 4 && attempt = 0 then
      let _, _, f =
        List.find (fun (w, _, _) -> w = "truncated sample line") garbles
      in
      Some (2, f)
    else None
  in
  let r = adaptive_run ~garble () in
  Alcotest.(check (list (pair int int))) "one retry, round 2 shard 0"
    [ (4, 0) ] (retry_shards r);
  check_same_campaign ~what:"garbled in round 2"
    ~events:ser_events_without_retries clean r

(* A rerun over the same part directory re-runs only the shard whose
   part file is gone: any other worker would die at once and, with no
   retries, fail the campaign. *)
let test_adaptive_resume () =
  let dir = tmp_dir "adaptive-resume" in
  let clean = adaptive_run ~part_dir:dir () in
  Sys.remove (Filename.concat dir "shard-2.jsonl");
  let sabotage ~shard ~attempt:_ = if shard = 2 then None else Some 0 in
  let r = adaptive_run ~part_dir:dir ~sabotage ~retries:0 () in
  Alcotest.(check int) "no retries" 0 r.Runner.retried;
  check_same_campaign ~what:"resumed" clean r;
  Alcotest.(check bool) "part file rewritten" true
    (Sys.file_exists (Filename.concat dir "shard-2.jsonl"));
  rm_rf dir

(* A flat campaign is the one-round adaptive campaign, artifacts and
   all: the same canonical event log (the requested shard count even
   when the plan clamps it: 8 shards over 6 samples), stats document and
   trace spans. *)
let test_flat_is_one_round () =
  let target = fixture_target () in
  List.iter
    (fun (shards, samples) ->
      let run policy =
        Runner.run ?policy ~mode:Runner.Traced ~shards ~seed ~samples target
      in
      let flat = run None
      and one = run (Some { Runner.rounds = 1; target_ci = 0.0 }) in
      let what = Fmt.str "%d shards, %d samples" shards samples in
      Alcotest.(check (list string)) (what ^ ": events") (ser_events one)
        (ser_events flat);
      Alcotest.(check (list string)) (what ^ ": stats") (Runner.stats_lines one)
        (Runner.stats_lines flat);
      Alcotest.(check (list string)) (what ^ ": trace spans")
        one.Runner.trace_spans flat.Runner.trace_spans)
    [ (2, samples); (8, 6) ]

(* A target with no eligible sites is rejected before any worker forks:
   no event fires, and the sabotage hook — which runs in a forked
   worker — never leaves its marker. *)
let test_no_eligible_sites () =
  let p =
    Prog.program
      [ Prog.func "main" [ Prog.block "main" [ Instr.original Instr.Ret ] ] ]
  in
  let target = F.prepare (Machine.load p) in
  Alcotest.(check int) "no eligible sites" 0 target.F.eligible_steps;
  let dir = tmp_dir "no-sites" in
  Unix.mkdir dir 0o755;
  let marker = Filename.concat dir "forked" in
  let sabotage ~shard:_ ~attempt:_ =
    close_out (open_out marker);
    None
  in
  let events = ref 0 in
  List.iter
    (fun policy ->
      match
        Runner.run ?policy ~sabotage
          ~on_event:(fun _ -> incr events)
          ~mode:Runner.Inject ~shards:2 ~seed ~samples target
      with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "expected Invalid_argument")
    [ None; Some { Runner.rounds = 3; target_ci = 0.0 } ];
  Alcotest.(check int) "no events" 0 !events;
  Alcotest.(check bool) "no worker forked" false (Sys.file_exists marker);
  rm_rf dir

(* ---- persistent workers ---- *)

let knn_ferrum () =
  let m = (Option.get (Catalog.find "kNN")).Catalog.build () in
  F.prepare (Machine.load (Pipeline.protect Technique.Ferrum m).program)

(* What a campaign leaves: records, canonical events, stats document
   and trace span rows. *)
let artifacts r =
  ( r.Runner.record_lines,
    ser_events r,
    Runner.stats_lines r,
    r.Runner.trace_spans )

let same_artifacts what a b =
  let ra, ea, sa, ta = a and rb, eb, sb, tb = b in
  Alcotest.(check (list string)) (what ^ ": records") ra rb;
  Alcotest.(check (list string)) (what ^ ": events") ea eb;
  Alcotest.(check (list string)) (what ^ ": stats") sa sb;
  Alcotest.(check (list string)) (what ^ ": trace spans") ta tb

(* [f ()] in a forked child, whose campaigns fork workers of their own;
   returns what [f] returned. *)
let in_fresh_process (f : unit -> 'a) : 'a =
  let rd, wr = Unix.pipe () in
  flush_all ();
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let oc = Unix.out_channel_of_descr wr in
    Marshal.to_channel oc (f ()) [];
    close_out oc;
    exit 0
  | pid ->
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let v = try Some (Marshal.from_channel ic : 'a) with End_of_file -> None in
    close_in ic;
    ignore (Unix.waitpid [] pid);
    Option.get v

let pool_campaigns =
  [ ("flat", Runner.Inject, None);
    ("adaptive", Runner.Traced, Some { Runner.rounds = 3; target_ci = 0.0 });
    ("flat again", Runner.Inject, None) ]

let pool_run ?on_event t (_, mode, policy) =
  Runner.run ?on_event ?policy ~mode ~shards:2 ~seed ~samples:60 t

(* One target campaigned three times runs on the same two workers, and
   each campaign leaves what it leaves in a fresh process. *)
let test_pool_reuse () =
  let fresh =
    List.map
      (fun c -> in_fresh_process (fun () -> artifacts (pool_run (knn_ferrum ()) c)))
      pool_campaigns
  in
  let t = knn_ferrum () in
  let pids = ref [] in
  List.iter2
    (fun ((what, _, _) as c) expected ->
      same_artifacts what expected (artifacts (pool_run t c));
      (match !pids with
      | [] -> pids := Runner.worker_pids t
      | p -> Alcotest.(check (list int)) (what ^ ": same workers") p
               (Runner.worker_pids t));
      Alcotest.(check int) (what ^ ": two workers") 2 (List.length !pids))
    pool_campaigns fresh

(* Campaigns on two targets interleave without disturbing each other's
   workers, and once a target is collected its workers are gone. *)
let test_pool_interleaving () =
  let c = List.hd pool_campaigns in
  let alone build = in_fresh_process (fun () -> artifacts (pool_run (build ()) c)) in
  let ref_a = alone knn_ferrum and ref_b = alone fixture_target in
  let a = knn_ferrum () and b = ref (Some (fixture_target ())) in
  same_artifacts "A" ref_a (artifacts (pool_run a c));
  same_artifacts "B" ref_b (artifacts (pool_run (Option.get !b) c));
  same_artifacts "A again" ref_a (artifacts (pool_run a c));
  let b_pids = Runner.worker_pids (Option.get !b) in
  Alcotest.(check int) "B's workers" 2 (List.length b_pids);
  b := None;
  Gc.full_major ();
  List.iter
    (fun pid ->
      match Unix.kill pid 0 with
      | () -> Alcotest.failf "worker %d outlived its collected target" pid
      | exception Unix.Unix_error (Unix.ESRCH, _, _) -> ())
    b_pids;
  Alcotest.(check int) "A's workers stay" 2 (List.length (Runner.worker_pids a))

(* A worker killed while idle is dropped by the next campaign without
   a retry: it took no part in that campaign.  Its shard goes to a new
   worker, or to the other one if that is idle by then, so the pool is
   back to two workers one campaign later at the latest. *)
let test_pool_dead_idle_worker () =
  let c = List.hd pool_campaigns in
  let t = knn_ferrum () in
  let clean = artifacts (pool_run t c) in
  let victim = List.hd (Runner.worker_pids t) in
  Unix.kill victim Sys.sigkill;
  let retries = ref 0 in
  let on_event (e : Events.t) =
    match e.Events.body with Events.Shard_retry _ -> incr retries | _ -> ()
  in
  let r = pool_run ~on_event t c in
  Alcotest.(check int) "no retry" 0 r.Runner.retried;
  Alcotest.(check int) "no retry event" 0 !retries;
  same_artifacts "after the kill" clean (artifacts r);
  Alcotest.(check bool) "the dead one dropped" false
    (List.mem victim (Runner.worker_pids t));
  same_artifacts "one campaign later" clean (artifacts (pool_run t c));
  Alcotest.(check int) "two workers again" 2
    (List.length (Runner.worker_pids t))

(* A process that ran campaigns on two targets and exits leaves no
   worker behind: by the time it is reaped, it has reaped its workers,
   and every holder of its watch pipe — it and the workers it forked —
   is gone.  Killed instead, it runs no exit handler; its workers then
   read end of file on their command pipes and exit on their own. *)
let test_pool_exit () =
  let watched ~killed =
    Ferrum_serve.Daemon.fork_watched (fun wr ->
        let a = knn_ferrum () and b = fixture_target () in
        ignore (pool_run a (List.hd pool_campaigns) : Runner.result);
        ignore (pool_run b (List.hd pool_campaigns) : Runner.result);
        let pids = Runner.worker_pids a @ Runner.worker_pids b in
        let line = String.concat " " (List.map string_of_int pids) ^ "\n" in
        ignore (Unix.write_substring wr line 0 (String.length line) : int);
        if killed then Unix.sleepf 60.0)
  in
  (* what the watch pipe carries until end of file, if that comes
     within [timeout] seconds of each read *)
  let drain wake ~timeout =
    let buf = Buffer.create 64 and chunk = Bytes.create 256 in
    let rec go () =
      match Unix.select [ wake ] [] [] timeout with
      | [], _, _ -> None
      | _ -> (
        match Unix.read wake chunk 0 256 with
        | 0 -> Some (Buffer.contents buf)
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          go ())
    in
    let r = go () in
    Unix.close wake;
    r
  in
  let pids_of text =
    List.filter_map int_of_string_opt
      (String.split_on_char ' ' (String.trim text))
  in
  let pid, wake = watched ~killed:false in
  let _, status = Unix.waitpid [] pid in
  Alcotest.(check bool) "the child exited 0" true (status = Unix.WEXITED 0);
  (match drain wake ~timeout:0.0 with
  | None -> Alcotest.fail "watch pipe not at end of file when the child is reaped"
  | Some text ->
    let pids = pids_of text in
    Alcotest.(check int) "four workers" 4 (List.length pids);
    List.iter
      (fun w ->
        match Unix.kill w 0 with
        | () -> Alcotest.failf "worker %d not reaped by its exiting runner" w
        | exception Unix.Unix_error (Unix.ESRCH, _, _) -> ())
      pids);
  let pid, wake = watched ~killed:true in
  let rec line () =
    match Unix.select [ wake ] [] [] 20.0 with
    | [], _, _ -> Alcotest.fail "the child did not run its campaigns"
    | _ ->
      let b = Bytes.create 1 in
      if Unix.read wake b 0 1 = 1 && Bytes.get b 0 <> '\n' then line ()
  in
  line ();
  Unix.kill pid Sys.sigkill;
  ignore (Unix.waitpid [] pid);
  Alcotest.(check bool) "watch pipe at end of file after a kill" true
    (drain wake ~timeout:20.0 <> None)

(* ---- manifests and run directories ---- *)

let test_manifest_roundtrip () =
  let p = checked_program () in
  let target = F.prepare (Machine.load p) in
  let m =
    Manifest.make ~benchmark:"fixture" ~technique:"raw" ~samples ~seed
      ~shards:3 ~fault_bits:1 ~all_sites:false ~traced:true ~program:p target
  in
  let dir = tmp_dir "manifest" in
  Manifest.save ~dir m;
  (match Manifest.load ~dir with
  | Ok m' -> Alcotest.(check bool) "round-trip" true (m = m')
  | Error e -> Alcotest.failf "load failed: %s" e);
  rm_rf dir

(* Manifest compatibility is what lets a fresh run trust (or clear) a
   directory's part files: any field feeding per-sample derivation or
   shard layout must match; display metadata may differ. *)
let test_manifest_compatible () =
  let p = checked_program () in
  let target = F.prepare (Machine.load p) in
  let make ?(benchmark = "fixture") ?(samples = samples) ?(seed = seed)
      ?(shards = 3) ?(fault_bits = 1) ?(all_sites = false) ?(traced = true)
      ?(program = p) () =
    Manifest.make ~benchmark ~technique:"raw" ~samples ~seed ~shards
      ~fault_bits ~all_sites ~traced ~program target
  in
  let base = make () in
  let check name expected m =
    Alcotest.(check bool) name expected (Manifest.compatible base m)
  in
  check "identical config" true (make ());
  check "display-only drift" true (make ~benchmark:"renamed" ());
  check "seed change" false (make ~seed:8L ());
  check "sample-count change" false (make ~samples:(samples + 1) ());
  check "shard-map change" false (make ~shards:4 ());
  check "fault-width change" false (make ~fault_bits:2 ());
  check "scope change" false (make ~all_sites:true ());
  check "traced change" false (make ~traced:false ());
  let scratch_target = F.prepare ~engine:F.Scratch (Machine.load p) in
  check "engine change" false
    (Manifest.make ~benchmark:"fixture" ~technique:"raw" ~samples ~seed
       ~shards:3 ~fault_bits:1 ~all_sites:false ~traced:true ~program:p
       scratch_target);
  let other =
    Prog.program
      [ Prog.func "main"
          [ Prog.block "main"
              [ Instr.original
                  (Instr.Mov (Reg.Q, Instr.Imm 9L, Instr.Reg Reg.RDI));
                Instr.original Instr.Ret ] ] ]
  in
  check "program change" false (make ~program:other ())

(* The one gate in front of a run directory's part files: a fresh run
   keeps them only under a compatible recorded manifest; a resumed run
   keeps them whatever is recorded.  The run's manifest is saved either
   way. *)
let test_parts_gate () =
  let p = checked_program () in
  let target = F.prepare (Machine.load p) in
  let make seed =
    Manifest.make ~benchmark:"fixture" ~technique:"raw" ~samples ~seed
      ~shards:3 ~fault_bits:1 ~all_sites:false ~traced:true ~program:p target
  in
  let m = make seed and other = make 8L in
  let dir = tmp_dir "gate" in
  let part = Filename.concat (Store.parts_dir dir) "shard-0.jsonl" in
  let case what ~recorded ~resume ~kept =
    rm_rf dir;
    Option.iter (fun r -> Manifest.save ~dir r) recorded;
    Ferrum_campaign.Fsutil.write_file part "d\t\n";
    Store.open_run ~resume ~dir m;
    Alcotest.(check bool) (what ^ ": parts kept") kept (Sys.file_exists part);
    Alcotest.(check bool) (what ^ ": manifest saved") true
      (Manifest.load ~dir = Ok m)
  in
  case "compatible" ~recorded:(Some m) ~resume:false ~kept:true;
  case "incompatible" ~recorded:(Some other) ~resume:false ~kept:false;
  case "no manifest" ~recorded:None ~resume:false ~kept:false;
  case "resume, incompatible" ~recorded:(Some other) ~resume:true ~kept:true;
  case "resume, no manifest" ~recorded:None ~resume:true ~kept:true;
  rm_rf dir

let test_run_dir_replay_equality () =
  let p = checked_program () in
  let target = F.prepare (Machine.load p) in
  let m =
    Manifest.make ~benchmark:"fixture" ~technique:"raw" ~samples ~seed
      ~shards:3 ~fault_bits:1 ~all_sites:false ~traced:true ~program:p target
  in
  let write dir =
    let result =
      Runner.run ~mode:Runner.Traced ~shards:3 ~seed ~samples
        ~part_dir:(Store.parts_dir dir) target
    in
    Store.write_run ~dir ~manifest:m ~result ()
  in
  let d1 = tmp_dir "run1" and d2 = tmp_dir "run2" in
  write d1;
  write d2;
  let contents dir file =
    String.concat "\n" (Metrics.read_lines (Filename.concat dir file))
  in
  List.iter
    (fun file ->
      Alcotest.(check string)
        (Fmt.str "%s identical across runs" file)
        (contents d1 file) (contents d2 file))
    [ Store.injection_file; Store.vulnmap_file; Store.events_file;
      Store.trace_file; Manifest.file ];
  (* the emitted events file validates against its schema *)
  (match
     Metrics.validate_lines ~kind:Events.kind ~record_fields:Events.fields
       (Metrics.read_lines (Filename.concat d1 Store.events_file))
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "events file invalid: %s" e);
  (* and the injection file equals the sequential CLI's byte-for-byte *)
  let ref_lines, _, _ =
    sequential ~traced:true ~seed ~samples (Machine.load p)
  in
  let expected =
    Json.to_string
      (Store.injection_header ~benchmark:"fixture" ~technique:"raw" ~samples
         ~seed ~all_sites:false ~fault_bits:1)
    :: ref_lines
  in
  Alcotest.(check (list string)) "injection file = header + records"
    expected
    (Metrics.read_lines (Filename.concat d1 Store.injection_file));
  rm_rf d1;
  rm_rf d2

(* A worker flushes each event as it emits it: on a one-shard traced
   campaign of about half a second, [Shard_started] reaches [on_event]
   while the shard is still running, not together with
   [Shard_finished]. *)
let test_events_arrive_live () =
  let m = (Option.get (Catalog.find "kmeans")).Catalog.build () in
  let img = Machine.load (Pipeline.raw m).program in
  let t = F.prepare ~engine:F.Scratch img in
  let arrivals = ref [] in
  let on_event (e : Events.t) =
    let now = Unix.gettimeofday () in
    arrivals := (Events.body_name e.Events.body, now) :: !arrivals
  in
  let t0 = Unix.gettimeofday () in
  ignore
    (Runner.run ~mode:Runner.Traced ~shards:1 ~seed:3L ~samples:20 ~on_event t
      : Runner.result);
  let run = Unix.gettimeofday () -. t0 in
  let at name =
    match List.assoc_opt name !arrivals with
    | Some t -> t
    | None -> Alcotest.failf "no %s event" name
  in
  let gap = at "shard_finished" -. at "shard_started" in
  if gap < run /. 2.0 then
    Alcotest.failf
      "shard_started arrived %.0f ms before shard_finished in a %.0f ms run"
      (gap *. 1000.0) (run *. 1000.0)

(* ---- the sample wire line ---- *)

module Propagation = Ferrum_telemetry.Propagation

(* Records over every destination kind, unreached faults, every class,
   strings that need escaping, and cycles that are integral (negative
   zero included), fractional, at or past 1e15, or negative. *)
let record_gen =
  let open QCheck.Gen in
  let any_int = oneof [ int_range (-1) 100_000; int ] in
  let text =
    oneof
      [ oneofl [ "movq"; "%rax"; "%xmm15[1]"; "flags.ZF"; "?"; "unreached" ];
        string_size ~gen:char (int_range 0 12) ]
  in
  let dest =
    oneof
      [ return None;
        map2 (fun r s -> Some (F.Igpr (r, s))) Tgen.gpr Tgen.size;
        map2
          (fun x l -> Some (F.Isimd (x, l)))
          (int_range 0 15) (int_range 0 7);
        map (fun f -> Some (F.Iflag f)) (oneofl Cond.[ ZF; SF; CF; OF ]) ]
  in
  let cycles =
    oneof
      [ map float_of_int (int_range (-1000) 10_000_000);
        return (-0.0);
        float;
        map (fun x -> 1e15 +. Float.abs x) float;
        map (fun k -> float_of_int k +. 0.25) (int_range (-50) 50) ]
  in
  let* sample = any_int and* r_dyn_index = any_int in
  let* r_static_index = any_int in
  let* opcode = text and* dest_s = text and* r_dest = dest in
  let* r_bit = any_int and* steps = any_int and* cycles = cycles in
  let* r_class = oneofl F.[ Benign; Sdc; Detected; Crash; Timeout ] in
  return
    {
      F.sample;
      r_dyn_index;
      r_static_index;
      opcode;
      dest = dest_s;
      r_dest;
      r_bit;
      r_class;
      steps;
      cycles;
    }

let print_record r = Json.to_string (F.record_to_json r)

let prop_record_rendering =
  QCheck.Test.make ~name:"worker rendering = Json.to_string (record_to_json r)"
    ~count:2000
    (QCheck.make ~print:print_record record_gen)
    (fun r ->
      let buf = Buffer.create 64 in
      F.write_record buf r;
      Buffer.contents buf = Json.to_string (F.record_to_json r))

let escapes =
  Propagation.
    [ Unprotected_program; Unchecked_site; Masked_then_reactivated;
      Output_before_check; Memory_before_check; Check_missed_taint ]

let prop_sample_line_roundtrip =
  let gen =
    QCheck.Gen.(
      triple record_gen
        (opt (pair (int_range 0 1_000_000) float))
        (opt (oneofl escapes)))
  in
  QCheck.Test.make ~name:"a sample line round-trips every field" ~count:1000
    (QCheck.make ~print:(fun (r, _, _) -> print_record r) gen)
    (fun (r, latency, escape) ->
      let buf = Buffer.create 64 in
      Shard.write_sample buf r ~latency ~escape;
      match Shard.read_sample (Buffer.contents buf) with
      | Error e -> QCheck.Test.fail_reportf "%s: %s" (Buffer.contents buf) e
      | Ok o ->
        let same_latency =
          match (latency, o.Shard.o_latency) with
          | None, None -> true
          | Some (s, c), Some (s', c') ->
            s = s'
            && Int64.equal (Int64.bits_of_float c) (Int64.bits_of_float c')
          | _ -> false
        in
        o.Shard.o_sample = r.F.sample
        && o.Shard.o_class = r.F.r_class
        && o.Shard.o_static = r.F.r_static_index
        && o.Shard.o_steps = r.F.steps
        && o.Shard.o_record = Json.to_string (F.record_to_json r)
        && o.Shard.o_escape = escape && same_latency)

(* What one sample costs the forked worker in minor words, its record
   and wire line included: samples 100-299 of a run_range, after a
   warm-up range, on every hybrid and FERRUM catalogue build. *)
let words_per_sample_budget = 150.

let test_sample_allocation_budget () =
  let over =
    List.concat_map
      (fun (e : Catalog.entry) ->
        List.filter_map
          (fun tq ->
            let img =
              Machine.load (Pipeline.protect tq (e.Catalog.build ())).program
            in
            let t = F.prepare img in
            let bytes = ref 0 in
            let on_sample _ ~steps:_ _ _ len = bytes := !bytes + len in
            Shard.run_range ~traced:false ~seed t { Shard.lo = 0; hi = 20 }
              ~on_sample;
            let before = Gc.minor_words () in
            Shard.run_range ~traced:false ~seed t { Shard.lo = 100; hi = 300 }
              ~on_sample;
            let per_sample = (Gc.minor_words () -. before) /. 200. in
            if per_sample > words_per_sample_budget then
              Some
                (Printf.sprintf "%s/%s %.0f" e.Catalog.name
                   (Technique.short_name tq) per_sample)
            else None)
          Technique.[ Hybrid_assembly_eddi; Ferrum ])
      Catalog.all
  in
  if over <> [] then
    Alcotest.failf "minor words per campaign sample above %.0f: %s"
      words_per_sample_budget (String.concat ", " over)

let () =
  Alcotest.run "campaign"
    [
      ( "sharding",
        [
          Alcotest.test_case "split_at = iterated splits" `Quick test_split_at;
          Alcotest.test_case "plan covers and balances" `Quick test_plan;
        ] );
      ( "runner",
        [
          Alcotest.test_case "inject identity K=1,2,3,7" `Quick
            test_inject_identity;
          Alcotest.test_case "vulnmap identity K=1,2,3,7" `Quick
            test_vulnmap_identity;
          Alcotest.test_case "protected workload identity" `Slow
            test_workload_identity;
          Alcotest.test_case "canonical log reproducible" `Quick
            test_log_reproducible;
          Alcotest.test_case "flat = one-round adaptive" `Quick
            test_flat_is_one_round;
        ] );
      ( "wire",
        [
          QCheck_alcotest.to_alcotest prop_record_rendering;
          QCheck_alcotest.to_alcotest prop_sample_line_roundtrip;
          Alcotest.test_case "every tag round-trips through a part" `Quick
            test_wire_tags;
          Alcotest.test_case "sample allocation budget" `Slow
            test_sample_allocation_budget;
        ] );
      ( "events",
        [
          Alcotest.test_case "round-trip + schema" `Quick test_event_roundtrip;
          Alcotest.test_case "replay" `Quick test_replay;
          Alcotest.test_case "worker events arrive live" `Quick
            test_events_arrive_live;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "worker death, ordered reassembly" `Quick
            test_worker_death;
          Alcotest.test_case "protocol error, kill and retry" `Quick
            test_protocol_error;
          Alcotest.test_case "corrupt part file rejected" `Quick
            test_corrupt_part_rejected;
          Alcotest.test_case "resume from part files" `Quick
            test_resume_from_parts;
          Alcotest.test_case "older-format part re-runs its shard" `Quick
            test_envelope_part_reruns;
          Alcotest.test_case "killed worker leaves no part" `Quick
            test_killed_worker_no_part;
          Alcotest.test_case "adaptive: worker death in round 1" `Quick
            test_adaptive_worker_death;
          Alcotest.test_case "adaptive: protocol error in round 2" `Quick
            test_adaptive_protocol_error;
          Alcotest.test_case "adaptive: resume after a lost part" `Quick
            test_adaptive_resume;
          Alcotest.test_case "no eligible sites, no fork" `Quick
            test_no_eligible_sites;
        ] );
      ( "pool",
        [
          Alcotest.test_case "reused workers = a fresh process" `Quick
            test_pool_reuse;
          Alcotest.test_case "interleaved targets, collected pool" `Quick
            test_pool_interleaving;
          Alcotest.test_case "idle worker killed, replaced silently" `Quick
            test_pool_dead_idle_worker;
          Alcotest.test_case "no worker outlives its process" `Quick
            test_pool_exit;
        ] );
      ( "manifest",
        [
          Alcotest.test_case "save/load round-trip" `Quick
            test_manifest_roundtrip;
          Alcotest.test_case "compatibility gate" `Quick
            test_manifest_compatible;
          Alcotest.test_case "parts gate, no-op on resume" `Quick
            test_parts_gate;
          Alcotest.test_case "run directories replay equal" `Quick
            test_run_dir_replay_equality;
        ] );
    ]
