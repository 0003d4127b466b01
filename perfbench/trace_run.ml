(* The traced run: every layer the workloads cross, each call wrapped in
   a benchmark-owned span and timed from outside, written as one stitched
   ferrum.trace.v1 document (plus its wall sidecar) that
   `ferrum trace-export` reads.  Per-layer times are the benchmark's own
   timings of those spans ([Util.span_times]); per-sample figures come
   from timers inside batch spans, so the trace stays small.  Campaign
   CPU and merge figures are read from the wall rows [Runner.run]
   returns, at their 10 ms resolution. *)

module Trace = Ferrum_telemetry.Trace
module Metrics = Ferrum_telemetry.Metrics
module Json = Ferrum_telemetry.Json
module Runner = Ferrum_campaign.Runner
module Store = Ferrum_campaign.Store
module Queue = Ferrum_campaign.Queue
module Manifest = Ferrum_campaign.Manifest
module Fsutil = Ferrum_campaign.Fsutil
module Html = Ferrum_report.Html
module Spec = Ferrum_serve.Spec
module Http = Ferrum_serve.Http
module Machine = Ferrum_machine.Machine
module Snapshot = Ferrum_machine.Snapshot
module Predecode = Ferrum_machine.Predecode
module F = Ferrum_faultsim.Faultsim
module Prog = Ferrum_asm.Prog
open Util

let ms s = s *. 1e3
let us s = s *. 1e6

let walls_of lines =
  match Trace.rows_of_lines lines with
  | Ok rows -> Trace.walls_of_rows rows
  | Error e ->
    check false ("wall rows parse: " ^ e);
    []

let dur (w : Trace.wall) = w.Trace.wl_end -. w.Trace.wl_start
let cpu (w : Trace.wall) = w.Trace.wl_cpu_user +. w.Trace.wl_cpu_sys

let interval =
  match F.default_engine with
  | F.Checkpointed k -> k
  | F.Scratch | F.Pooled -> 4096

(* Toolchain layers: one pass over every source and configuration. *)
let toolchain tr ~seed =
  let built =
    List.concat_map
      (Toolchain.build ~tr ~lint:true ~vulnmap:true)
      (Toolchain.catalogue @ Toolchain.c_programs ~seed)
  in
  let cat = List.filter (fun (b : Toolchain.built) -> Toolchain.is_catalogue b.source) built in
  List.iter
    (fun config ->
      let name = Toolchain.config_name config in
      let insns =
        List.fold_left
          (fun acc (b : Toolchain.built) ->
            if b.config = name then acc + Prog.num_instructions b.program else acc)
          0 cat
      in
      report ("core.static_insns." ^ name) "count" (float_of_int insns))
    Toolchain.configs;
  report "sim.overhead_pct" "%" (Toolchain.overhead_pct (List.map Toolchain.cycles built));
  cat

(* Engine layers on the catalogue targets: whole golden runs with and
   without an observer, checkpoint capture and restore, single samples
   untraced and traced, record serialisation. *)
let engine tr ~seed (cat : Toolchain.built list) =
  let sp name f = span (Some tr) name f in
  let caches =
    List.map
      (fun (b : Toolchain.built) ->
        let t = b.target in
        sp "snapshot.build" (fun () ->
            Snapshot.build ~interval ~counted:(fun i -> t.F.eligible.(i)) t.F.img))
      cat
  in
  report "snapshot.ckpts" "count"
    (float_of_int (List.fold_left (fun acc c -> acc + Snapshot.ckpt_count c) 0 caches));
  let per_step name exec =
    let time = ref 0.0 and steps = ref 0 in
    sp name (fun () ->
        List.iter2
          (fun (b : Toolchain.built) cache ->
            let t = b.target in
            let sl = Snapshot.make_slot cache and pre = F.predecoded t in
            for _ = 1 to 3 do
              Snapshot.reset sl;
              let st = Snapshot.state sl in
              let outcome, dt = timed (fun () -> exec t pre st) in
              check
                (Machine.equal_outcome outcome (Machine.Exit t.F.golden_output))
                (b.label ^ ": " ^ name ^ " reproduces the golden run");
              time := !time +. dt;
              steps := !steps + st.Machine.steps
            done)
          cat caches);
    1e9 *. !time /. float_of_int !steps
  in
  report "predecode.fast_ns_per_step" "ns"
    (per_step "predecode.exec" (fun t pre st -> Predecode.exec ~fuel:t.F.fuel pre st));
  report "predecode.observed_ns_per_step" "ns"
    (per_step "predecode.exec_observed" (fun t pre st ->
         Predecode.exec_observed ~fuel:t.F.fuel ~on_step:(fun _ _ -> ()) pre st));
  let pick = rng ~seed 3 in
  let restores = 64 in
  let rtime = ref 0.0 in
  sp "snapshot.restore" (fun () ->
      List.iter2
        (fun (b : Toolchain.built) cache ->
          let sl = Snapshot.make_slot cache in
          let at =
            Array.init restores (fun _ -> Rng.int pick (max 1 b.target.F.eligible_steps))
          in
          let (), dt =
            timed (fun () ->
                Array.iter (fun d -> ignore (Snapshot.restore sl ~dyn_index:d)) at)
          in
          rtime := !rtime +. dt)
        cat caches);
  report "snapshot.restore_us" "us"
    (us !rtime /. float_of_int (restores * List.length cat));
  (* The same seeded samples, untraced then traced. *)
  let cseed = Campaigns.campaign_seed seed 0 in
  let ids =
    List.map (fun b -> (b, List.init 32 (fun _ -> Rng.int pick 1_000_000))) cat
  in
  let plain = ref [] and traced = ref [] and records = ref [] and traced_records = ref [] in
  let prefix = ref 0 and suffix = ref 0 and restored = ref 0 and fused = ref 0 in
  let words = ref 0.0 in
  sp "faultsim.samples" (fun () ->
      List.iter
        (fun ((b : Toolchain.built), samples) ->
          let t = b.target in
          F.reset_phases t;
          let w0 = Gc.minor_words () in
          List.iter
            (fun sample ->
              let (_, _, r), dt = timed (fun () -> F.campaign_sample t ~seed:cseed ~sample) in
              plain := dt :: !plain;
              records := r :: !records)
            samples;
          words := !words +. (Gc.minor_words () -. w0);
          let ph = F.phases t in
          prefix := !prefix + ph.F.ph_prefix_steps;
          suffix := !suffix + ph.F.ph_suffix_steps;
          restored := !restored + ph.F.ph_restores;
          fused := !fused + ph.F.ph_fused_steps)
        ids);
  sp "faultsim.traced_samples" (fun () ->
      List.iter
        (fun ((b : Toolchain.built), samples) ->
          List.iter
            (fun sample ->
              let (_, _, r, _), dt =
                timed (fun () -> F.vulnmap_sample b.target ~seed:cseed ~sample)
              in
              traced := dt :: !traced;
              traced_records := r :: !traced_records)
            samples)
        ids);
  check (!records = !traced_records) "traced samples reproduce the untraced records";
  let reps = 20 in
  let (), dt =
    sp "telemetry.record_json" (fun () ->
        timed (fun () ->
            for _ = 1 to reps do
              List.iter (fun r -> ignore (Json.to_string (F.record_to_json r))) !records
            done))
  in
  let n = float_of_int (List.length !plain) in
  report "telemetry.record_json_us" "us" (us dt /. (float_of_int reps *. n));
  report "faultsim.sample_us.p50" "us" (us (median !plain));
  report "faultsim.sample_us.p99" "us" (us (quantile 0.99 !plain));
  report "faultsim.ns_per_step" "ns"
    (1e9 *. sum !plain /. float_of_int (!prefix + !suffix));
  report "faultsim.minor_words_per_sample" "words" (!words /. n);
  report "faultsim.prefix_steps" "steps" (float_of_int !prefix /. n);
  report "faultsim.suffix_steps" "steps" (float_of_int !suffix /. n);
  report "faultsim.restores" "count" (float_of_int !restored /. n);
  report "faultsim.fused_share" "ratio" (float_of_int !fused /. float_of_int !suffix);
  report "faultsim.traced_sample_us.p50" "us" (us (median !traced));
  report "faultsim.traced_sample_us.p99" "us" (us (quantile 0.99 !traced));
  report "telemetry.propagation_share" "ratio"
    ((sum !traced -. sum !plain) /. sum !traced)

(* Campaign layers: each catalogue target campaigned untraced and traced
   (its spans stitched under the benchmark's), in alternating order; the
   difference is the tracing overhead. *)
let samples = Campaigns.samples

let campaign tr ~seed (cat : Toolchain.built list) =
  let cseed = Campaigns.campaign_seed seed 0 in
  let plain = ref 0.0 and traced = ref 0.0 and count = ref 0 in
  let walls = ref [] and sdc = ref 0 and retried = ref 0 in
  let results =
    List.mapi
      (fun i (b : Toolchain.built) ->
        let untraced () =
          timed (fun () ->
              Runner.run ~mode:Runner.Inject ~shards:2 ~workers:2 ~seed:cseed ~samples
                b.target)
        in
        let with_spans () =
          timed (fun () ->
              Trace.span tr "campaign.run" (fun () ->
                  let trace_ctx = Trace.ctx_for tr ~seg:(Printf.sprintf "c%d" i) in
                  let r =
                    Runner.run ~trace_ctx ~mode:Runner.Inject ~shards:2 ~workers:2
                      ~seed:cseed ~samples b.target
                  in
                  Trace.absorb tr ~span_lines:r.Runner.trace_spans
                    ~wall_lines:r.Runner.trace_walls;
                  r))
        in
        let (r1, d1), (r2, d2) =
          if i mod 2 = 0 then
            let a = untraced () in
            (a, with_spans ())
          else
            let second = with_spans () in
            (untraced (), second)
        in
        plain := !plain +. d1;
        traced := !traced +. d2;
        count := !count + samples;
        retried := !retried + r1.Runner.retried + r2.Runner.retried;
        check
          (r1.Runner.counts = r2.Runner.counts
          && r1.Runner.record_lines = r2.Runner.record_lines)
          (b.label ^ ": traced campaign matches untraced");
        sdc := !sdc + r1.Runner.counts.F.sdc;
        walls := walls_of r2.Runner.trace_walls @ !walls;
        (b, r2))
      cat
  in
  op ~failures:!retried "campaign shard retries";
  let rate d = float_of_int !count /. d in
  report "trace.untraced_samples_per_s" "1/s" (rate !plain);
  report "trace.samples_per_s" "1/s" (rate !traced);
  report "trace.overhead_pct" "%"
    (100.0 *. (rate !plain -. rate !traced) /. rate !plain);
  let named n = List.filter (fun (w : Trace.wall) -> w.Trace.wl_name = n) !walls in
  let worker = sum (List.map cpu (named "shard")) in
  let runner =
    sum
      (List.map cpu
         (List.filter (fun (w : Trace.wall) -> w.Trace.wl_proc = "runner") (named "campaign")))
  in
  report "campaign.worker_cpu_s" "s" (worker /. float_of_int (List.length cat));
  report "campaign.runner_cpu_frac" "ratio" (runner /. worker);
  report "campaign.merge_ms" "ms" (ms (mean (List.map dur (named "merge"))));
  report "campaign.retried" "count" (float_of_int !retried);
  report "sim.sdc_pct" "%" (100.0 *. float_of_int !sdc /. float_of_int !count);
  (cseed, results)

(* Store, queue and report layers on finished campaigns. *)
let store tr ~workdir ~cseed results =
  let sp name f = span (Some tr) name f in
  let root = Filename.concat workdir "store" in
  List.iteri
    (fun i ((b : Toolchain.built), (result : Runner.result)) ->
      if i < 8 then begin
        let manifest =
          Manifest.make ~benchmark:b.source ~technique:b.config ~samples ~seed:cseed
            ~shards:2 ~fault_bits:1 ~all_sites:false ~traced:false ~program:b.program
            b.target
        in
        let spool = Filename.concat workdir (Printf.sprintf "spool-%d" i) in
        Store.write_run ~dir:spool ~manifest ~result ();
        Fsutil.write_file
          (Filename.concat spool Store.run_file)
          (Store.jsonl (Store.run_header [])
             [ Json.to_string (Store.run_record ~manifest ~result) ]);
        check
          (Result.is_ok (sp "report.dashboard" (fun () -> Html.render_dir spool)))
          (b.label ^ ": dashboard renders");
        match sp "store.publish" (fun () -> Store.publish ~root ~src:spool) with
        | Error e -> check false ("publish: " ^ e)
        | Ok digest ->
          for _ = 1 to 5 do
            let found =
              match sp "store.lookup" (fun () -> Store.lookup ~root digest) with
              | Store.Hit _ -> true
              | Store.Miss | Store.Corrupt _ -> false
            in
            check found (b.label ^ ": stored run found")
          done
      end)
    results;
  let q = Queue.load ~dir:(Filename.concat workdir "queue") in
  for i = 1 to 40 do
    ignore
      (sp "queue.submit" (fun () ->
           Queue.submit q ~spec:(Printf.sprintf "{\"n\":%d}" i) ~digest:"" ~cached:false
             ~state:Queue.Pending))
  done

(* Serve layers: in-process spec resolution, then a short closed loop
   against a fresh daemon and its HTTP round trip. *)
let serve tr ~seed ~seconds ~workdir =
  let sp name f = span (Some tr) name f in
  let spec = Serve_load.specs ~seed ~client:0 in
  for i = 0 to 3 do
    check
      (Result.is_ok (sp "serve.resolve" (fun () -> Spec.resolve (spec i))))
      "spec resolves"
  done;
  let d, _ =
    sp "serve.start" (fun () -> Serve_load.start ~root:(Filename.concat workdir "serve"))
  in
  Fun.protect
    ~finally:(fun () -> Serve_load.stop d)
    (fun () ->
      let t, _ =
        sp "serve.load" (fun () ->
            Serve_load.run_clients d ~seed ~clients:Serve_load.clients ~hits:Serve_load.hits ~seconds
              ~dir:(Filename.concat workdir "clients"))
      in
      for _ = 1 to 20 do
        let ok =
          match sp "serve.http_rtt" (fun () -> Serve_load.request d "GET" "/jobs/1") with
          | Ok r -> r.Http.status = 200
          | Error _ -> false
        in
        check ok "GET /jobs/1 answers 200"
      done;
      let p q xs = ms (quantile q xs) in
      report "serve.hit_p50_ms" "ms" (p 0.5 t.Serve_load.hits);
      report "serve.hit_p90_ms" "ms" (p 0.9 t.Serve_load.hits);
      report "serve.miss_p50_ms" "ms" (p 0.5 t.Serve_load.misses);
      report "serve.miss_p90_ms" "ms" (p 0.9 t.Serve_load.misses);
      report "serve.queue_wait_ms" "ms" (p 0.5 t.Serve_load.waits);
      report "serve.fetch_ms" "ms" (p 0.5 t.Serve_load.fetches))

(* Mean wall time of the benchmark's own spans, per layer. *)
let layer_times () =
  let mean_ms span =
    match Hashtbl.find_opt span_times span with
    | None -> Float.nan
    | Some ts -> ms (mean ts)
  in
  List.iter
    (fun (metric, span) -> report metric "ms" (mean_ms span))
    [ ("ir.build_ms", "ir.build"); ("clite.compile_ms", "clite.compile");
      ("backend.compile_ms", "backend.compile");
      ("core.protect_ms.ir-eddi", "core.protect.ir-eddi");
      ("core.protect_ms.hybrid", "core.protect.hybrid");
      ("core.protect_ms.ferrum", "core.protect.ferrum");
      ("analysis.lint_ms", "analysis.lint"); ("machine.load_ms", "machine.load");
      ("faultsim.prepare_ms", "faultsim.prepare");
      ("predecode.decode_ms", "predecode.decode");
      ("snapshot.build_ms", "snapshot.build");
      ("store.lookup_ms", "store.lookup"); ("store.publish_ms", "store.publish");
      ("queue.submit_ms", "queue.submit");
      ("report.dashboard_ms", "report.dashboard");
      ("serve.resolve_ms", "serve.resolve"); ("serve.http_rtt_ms", "serve.http_rtt") ]

(* Write the trace and its wall sidecar, and check them the way
   `ferrum trace-export` does: schema-valid and stitched to one root. *)
let write tr ~path =
  let header = Trace.header [ ("source", Json.Str "perfbench") ] in
  Fsutil.write_file path (Store.jsonl header (Trace.span_lines tr));
  Fsutil.write_file (path ^ ".wall") (Store.jsonl header (Trace.wall_lines tr));
  let lines = Metrics.read_lines path in
  check
    (Result.is_ok
       (Metrics.validate_lines ~kind:Trace.kind ~record_fields:Trace.fields lines))
    "trace document validates";
  check
    (Result.is_ok (Trace.validate_stitched (List.tl lines)))
    "trace stitches under one root";
  Printf.printf "# trace %s\n" path

let run ~seed ~seconds ~workdir ~trace_path =
  let tr =
    Trace.create ~trace:(Trace.derive_id ~seed:(Int64.of_int seed) "perfbench")
      ~proc:"bench" ()
  in
  Trace.span tr "bench" (fun () ->
      let cat = Trace.span tr "stage.toolchain" (fun () -> toolchain tr ~seed) in
      Trace.span tr "stage.engine" (fun () -> engine tr ~seed cat);
      let cseed, results = Trace.span tr "stage.campaign" (fun () -> campaign tr ~seed cat) in
      Trace.span tr "stage.store" (fun () -> store tr ~workdir ~cseed results);
      Trace.span tr "stage.serve" (fun () ->
          serve tr ~seed ~seconds:(Float.max 1.0 (seconds /. 3.0)) ~workdir));
  layer_times ();
  write tr ~path:trace_path
