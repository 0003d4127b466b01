(* Campaign run directories.

   A finished run is a directory:

     manifest.json      ferrum.manifest.v1 (config, shard map, digests)
     injection.jsonl    ferrum.injection.v2 (header + per-sample records)
     vulnmap.jsonl      ferrum.vulnmap.v1 (traced runs only)
     events.jsonl       ferrum.events.v1 (canonical merged event log)
     stats.jsonl        ferrum.stats.v1 (convergence document)
     trace.jsonl        ferrum.trace.v1 (stitched spans, logical clocks)
     trace-wall.jsonl   ferrum.trace.v1 wall sidecar (not in schemas:
                        wall/CPU/RSS data is non-deterministic)
     parts/             per-shard raw streams (resume state)

   The header builders here are the single source of the campaign
   metrics headers: `inject --metrics`, `vulnmap --metrics` and run
   directories all use them, which is what makes a 1-shard CLI file
   byte-comparable to a sharded run's. *)

module F = Ferrum_faultsim.Faultsim
module Json = Ferrum_telemetry.Json
module Metrics = Ferrum_telemetry.Metrics
module Events = Ferrum_telemetry.Events
module Stats = Ferrum_telemetry.Stats

(* Campaign configuration fields shared by every header, in the field
   order the v2 files have always used. *)
let config_fields ~benchmark ~technique ~samples ~seed ~all_sites ~fault_bits
    =
  [
    ("benchmark", Json.Str benchmark);
    ("technique", Json.Str technique);
    ("samples", Json.Int samples);
    ("seed", Json.Str (Int64.to_string seed));
    ("scope", Json.Str (if all_sites then "all-sites" else "original"));
    ("fault_bits", Json.Int fault_bits);
  ]

let injection_header ~benchmark ~technique ~samples ~seed ~all_sites
    ~fault_bits =
  Metrics.header ~kind:F.metrics_kind
    (config_fields ~benchmark ~technique ~samples ~seed ~all_sites
       ~fault_bits)

let vulnmap_header ~benchmark ~technique ~samples ~seed ~all_sites
    ~fault_bits =
  Metrics.header ~kind:F.vulnmap_kind
    (config_fields ~benchmark ~technique ~samples ~seed ~all_sites
       ~fault_bits)

let events_header ~benchmark ~technique ~samples ~seed ~all_sites ~fault_bits
    ~shards =
  Events.header
    (config_fields ~benchmark ~technique ~samples ~seed ~all_sites
       ~fault_bits
    @ [ ("shards", Json.Int shards) ])

let stats_header ~benchmark ~technique ~samples ~seed ~all_sites ~fault_bits
    =
  Stats.header
    (config_fields ~benchmark ~technique ~samples ~seed ~all_sites
       ~fault_bits)

let trace_header ~benchmark ~technique ~samples ~seed ~all_sites ~fault_bits
    =
  Ferrum_telemetry.Trace.header
    (config_fields ~benchmark ~technique ~samples ~seed ~all_sites
       ~fault_bits)

let injection_file = "injection.jsonl"
let vulnmap_file = "vulnmap.jsonl"
let events_file = "events.jsonl"
let stats_file = "stats.jsonl"
let trace_file = "trace.jsonl"
let trace_wall_file = "trace-wall.jsonl"
let parts_dir dir = Filename.concat dir "parts"

let jsonl header lines =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Json.to_string header);
  Buffer.add_char buf '\n';
  List.iter
    (fun l ->
      Buffer.add_string buf l;
      Buffer.add_char buf '\n')
    lines;
  Buffer.contents buf

(* Write a finished run.  All files are written atomically so a
   directory either has a coherent set or is still resumable.

   [extra_trace] prepends caller span rows (e.g. the serve daemon's
   job/queue-wait spans) to the campaign's own, so the stored trace is
   the whole stitched story; the wall sidecar is appended likewise. *)
let write_run ?(extra_trace = ([], [])) ~dir ~(manifest : Manifest.t)
    ~(result : Runner.result) () =
  Fsutil.mkdir_p dir;
  let m = manifest in
  let technique = m.Manifest.technique in
  let all_sites = m.Manifest.scope = "all-sites" in
  let header_of f =
    f ~benchmark:m.Manifest.benchmark ~technique ~samples:m.Manifest.samples
      ~seed:m.Manifest.seed ~all_sites ~fault_bits:m.Manifest.fault_bits
  in
  Fsutil.write_file
    (Filename.concat dir injection_file)
    (jsonl (header_of injection_header) result.Runner.record_lines);
  (match result.Runner.vulnmap with
  | Some v ->
    Fsutil.write_file
      (Filename.concat dir vulnmap_file)
      (jsonl (header_of vulnmap_header)
         (List.map Json.to_string (F.vulnmap_rows v)))
  | None -> ());
  Fsutil.write_file
    (Filename.concat dir events_file)
    (jsonl
       (header_of events_header ~shards:m.Manifest.shards)
       (List.map
          (fun e -> Json.to_string (Events.to_json e))
          result.Runner.events));
  Fsutil.write_file
    (Filename.concat dir stats_file)
    (jsonl (header_of stats_header) (Runner.stats_lines result));
  let extra_spans, extra_walls = extra_trace in
  Fsutil.write_file
    (Filename.concat dir trace_file)
    (jsonl (header_of trace_header)
       (extra_spans @ result.Runner.trace_spans));
  Fsutil.write_file
    (Filename.concat dir trace_wall_file)
    (jsonl (header_of trace_header)
       (extra_walls @ result.Runner.trace_walls));
  Manifest.save ~dir m

(* ------------------------------------------------------------------ *)
(* Content-addressed run store: `ferrum.run.v1`.                       *)
(* ------------------------------------------------------------------ *)

(* Layout under a store root:

     <root>/<digest>/          one published run, digest = Manifest.digest
       manifest.json injection.jsonl events.jsonl [vulnmap.jsonl]
       run.json                ferrum.run.v1 header + one record
       dashboard.html          (when the publisher rendered one)
     <root>/index.jsonl        ferrum.run.v1 header + one record per run,
                               publication order

   A digest names a complete, immutable run: publishing the same digest
   twice is a cache hit and the stored bytes are served unchanged. *)

let run_kind = "ferrum.run.v1"
let run_file = "run.json"
let dashboard_file = "dashboard.html"

let run_fields =
  Metrics.
    [
      field "digest" F_string;
      field "benchmark" F_string;
      field "technique" F_string;
      field "samples" F_int;
      field "seed" F_string;
      field "scope" F_string;
      field "traced" F_int;
      field "engine" F_string;
      field "shards" F_int;
      field "benign" F_int;
      field "sdc" F_int;
      field "detected" F_int;
      field "crash" F_int;
      field "timeout" F_int;
      field "clock" F_int;
      field "retried" F_int;
    ]

let run_record ~(manifest : Manifest.t) ~(result : Runner.result) : Json.t =
  let t = Runner.tally_of_counts result.Runner.counts in
  Json.Obj
    [
      ("digest", Json.Str (Manifest.digest manifest));
      ("benchmark", Json.Str manifest.Manifest.benchmark);
      ("technique", Json.Str manifest.Manifest.technique);
      ("samples", Json.Int manifest.Manifest.samples);
      ("seed", Json.Str (Int64.to_string manifest.Manifest.seed));
      ("scope", Json.Str manifest.Manifest.scope);
      ("traced", Json.Int (if manifest.Manifest.traced then 1 else 0));
      ("engine", Json.Str manifest.Manifest.engine);
      ("shards", Json.Int manifest.Manifest.shards);
      ("benign", Json.Int t.Events.benign);
      ("sdc", Json.Int t.Events.sdc);
      ("detected", Json.Int t.Events.detected);
      ("crash", Json.Int t.Events.crash);
      ("timeout", Json.Int t.Events.timeout);
      ("clock", Json.Int result.Runner.clock);
      ("retried", Json.Int result.Runner.retried);
    ]

let run_header extra = Metrics.header ~kind:run_kind extra

let entry_dir ~root digest = Filename.concat root digest
let index_file root = Filename.concat root "index.jsonl"

(* A digest is 32 hex characters; reject anything else before it can
   name a path (the daemon feeds URL components through here). *)
let valid_digest d =
  String.length d = 32
  && String.for_all
       (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
       d

type lookup =
  | Hit of string  (** entry directory; contents verified coherent *)
  | Corrupt of string  (** entry present but fails verification *)
  | Miss

(* Verify a stored entry: the manifest must parse and re-digest to the
   entry's name, and every artifact the manifest promises must exist —
   a tampered or torn entry is rejected rather than served. *)
let lookup ~root digest =
  if not (valid_digest digest) then Miss
  else begin
    let dir = entry_dir ~root digest in
    if not (Sys.file_exists (Filename.concat dir Manifest.file)) then Miss
    else
      match Manifest.load ~dir with
      | Error e -> Corrupt e
      | Ok m ->
        if Manifest.digest m <> digest then
          Corrupt
            (Fmt.str "manifest digests to %s, stored as %s"
               (Manifest.digest m) digest)
        else begin
          let missing =
            List.filter
              (fun (f, _) -> not (Sys.file_exists (Filename.concat dir f)))
              ((run_file, run_kind) :: m.Manifest.schemas)
          in
          match missing with
          | [] -> Hit dir
          | (f, _) :: _ -> Corrupt (Fmt.str "missing artifact %s" f)
        end
  end

(* Read the run.json record line of a published entry. *)
let entry_record ~root digest =
  match Metrics.read_lines (Filename.concat (entry_dir ~root digest) run_file) with
  | [ _header; record ] -> Some record
  | _ -> None

(* Rebuild <root>/index.jsonl: existing index order is preserved (it
   is publication order), stale digests are dropped, new coherent
   entries are appended in name order.  Atomic via Fsutil. *)
let rebuild_index ~root =
  Fsutil.mkdir_p root;
  let known =
    if Sys.file_exists (index_file root) then
      match Metrics.read_lines (index_file root) with
      | _header :: records ->
        List.filter_map
          (fun line ->
            match
              Option.bind (Json.of_string_opt line) (Json.member "digest")
            with
            | Some (Json.Str d) -> Some d
            | _ -> None)
          records
      | [] -> []
    else []
  in
  let present =
    Sys.readdir root |> Array.to_list
    |> List.filter (fun d -> lookup ~root d = Hit (entry_dir ~root d))
  in
  let ordered =
    List.filter (fun d -> List.mem d present) known
    @ List.sort compare
        (List.filter (fun d -> not (List.mem d known)) present)
  in
  let records = List.filter_map (entry_record ~root) ordered in
  Fsutil.write_file (index_file root)
    (jsonl (run_header [ ("runs", Json.Int (List.length records)) ]) records);
  ordered

(* Add a freshly published entry to the index: its run.json record
   is appended and the header's run count bumped, without re-verifying
   the entries already indexed — the bytes equal what [rebuild_index]
   would write.  A missing index, or one that already names [digest]
   (a stale record of an entry that has since gone), is rebuilt. *)
let append_index ~root digest =
  let path = index_file root in
  (* [run_record] puts the digest first *)
  let named = Fmt.str "{\"digest\":\"%s\"" digest in
  match (Fsutil.complete_lines path, entry_record ~root digest) with
  | _header :: records, Some record
    when not (List.exists (String.starts_with ~prefix:named) records) ->
    Fsutil.write_file path
      (jsonl
         (run_header [ ("runs", Json.Int (List.length records + 1)) ])
         (records @ [ record ]))
  | _ -> ignore (rebuild_index ~root)

(* Publish [src] (a finished run directory already containing run.json)
   under its manifest digest.  Returns the digest; when the digest is
   already stored the existing entry wins and [src] is discarded — the
   store is immutable and a second identical run is a cache hit.  Only
   a replaced corrupt entry (or a missing index) rebuilds the index;
   a new entry is appended to it. *)
let publish ~root ~src =
  match Manifest.load ~dir:src with
  | Error e -> Error (Fmt.str "publish %s: %s" src e)
  | Ok m ->
    let digest = Manifest.digest m in
    Fsutil.mkdir_p root;
    (match lookup ~root digest with
    | Hit _ ->
      Fsutil.rm_rf src;
      if not (Sys.file_exists (index_file root)) then
        ignore (rebuild_index ~root)
    | Corrupt _ ->
      (* replace a torn entry with the fresh coherent one *)
      Fsutil.rm_rf (entry_dir ~root digest);
      Fsutil.rename src (entry_dir ~root digest);
      ignore (rebuild_index ~root)
    | Miss ->
      Fsutil.rename src (entry_dir ~root digest);
      append_index ~root digest);
    Ok digest
