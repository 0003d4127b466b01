(* Tests for the distributed-tracing subsystem (ferrum.trace.v1):
   recorder nesting and the tree view, pipeline-stage spans,
   deterministic span ids and stitching, traceparent propagation,
   span-context round-trip across a real fork, campaign trace byte
   identity, the Perfetto / folded-flamegraph exporters and the
   dashboard icicle order. *)

open Ferrum_asm
module Machine = Ferrum_machine.Machine
module F = Ferrum_faultsim.Faultsim
module Json = Ferrum_telemetry.Json
module Metrics = Ferrum_telemetry.Metrics
module Trace = Ferrum_telemetry.Trace
module Runner = Ferrum_campaign.Runner
module Store = Ferrum_campaign.Store
module Manifest = Ferrum_campaign.Manifest
module Fsutil = Ferrum_campaign.Fsutil
module Html = Ferrum_report.Html
module Pipeline = Ferrum_eddi.Pipeline
module Technique = Ferrum_eddi.Technique
module Catalog = Ferrum_workloads.Catalog

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

let index_of ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i =
    if i + n > m then max_int
    else if String.sub s i n = affix then i
    else go (i + 1)
  in
  go 0

let contains ~affix s = index_of ~affix s < max_int

(* ---- recorder spans and the tree view ---- *)

let spans_of r =
  match Trace.rows_of_lines (Trace.span_lines r) with
  | Ok rows -> Trace.spans_of_rows rows
  | Error e -> Alcotest.failf "rows: %s" e

let test_span_nesting () =
  let r = Trace.create ~trace:"t" ~proc:"p" () in
  let result =
    Trace.span r "compile" (fun () ->
        Trace.counter r "instructions" 10;
        Trace.span r "peephole" (fun () ->
            Trace.counter r "rewrites" 3;
            42))
  in
  Alcotest.(check int) "body result" 42 result;
  Alcotest.(check int) "one wall row per span" 2
    (List.length (Trace.wall_lines r));
  match spans_of r with
  | [ outer; inner ] ->
    Alcotest.(check (list string)) "outer id, parent, name"
      [ "0"; ""; "compile" ]
      [ outer.Trace.sp_id; outer.Trace.sp_parent; outer.Trace.sp_name ];
    Alcotest.(check (list string)) "inner id, parent, name"
      [ "0.0"; "0"; "peephole" ]
      [ inner.Trace.sp_id; inner.Trace.sp_parent; inner.Trace.sp_name ];
    Alcotest.(check (list (pair string int)))
      "outer counters" [ ("instructions", 10) ] outer.Trace.sp_counters;
    Alcotest.(check (list (pair string int)))
      "inner counters" [ ("rewrites", 3) ] inner.Trace.sp_counters;
    let t = Trace.tree ~spans:[ outer; inner ] ~walls:[] in
    Alcotest.(check (list string)) "tree roots" [ "0" ]
      (List.map (fun s -> s.Trace.sp_id) (Trace.roots t));
    Alcotest.(check (list string)) "tree children" [ "0.0" ]
      (List.map (fun s -> s.Trace.sp_id) (Trace.children t outer))
  | spans -> Alcotest.failf "expected 2 spans, got %d" (List.length spans)

let test_span_exception () =
  let r = Trace.create ~trace:"t" ~proc:"p" () in
  (match
     Trace.span r "boom" (fun () ->
         Trace.counter r "seen" 1;
         failwith "x")
   with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "exception must propagate");
  Trace.span r "after" ignore;
  match spans_of r with
  | [ boom; after ] ->
    Alcotest.(check string) "span closed despite raise" "boom"
      boom.Trace.sp_name;
    Alcotest.(check (list (pair string int)))
      "counters before the raise kept" [ ("seen", 1) ] boom.Trace.sp_counters;
    Alcotest.(check (list string)) "next span is a new root"
      [ "1"; "" ]
      [ after.Trace.sp_id; after.Trace.sp_parent ]
  | spans -> Alcotest.failf "expected 2 spans, got %d" (List.length spans)

let test_span_pp () =
  let r = Trace.create ~trace:"t" ~proc:"p" () in
  Trace.span r "a" (fun () ->
      Trace.counter r "n" 2;
      Trace.span r "b" ignore);
  let untimed = Fmt.str "%a" (Trace.pp ?timings:None) r in
  Alcotest.(check string) "name column, indent, counters"
    ("a" ^ String.make 23 ' ' ^ "  [n=2]\n  b" ^ String.make 21 ' ' ^ "\n")
    untimed;
  (* the default rendering must not contain clock readings *)
  Alcotest.(check bool) "no durations by default" false
    (String.contains untimed '.');
  let timed = Fmt.str "%a" (Trace.pp ~timings:true) r in
  Alcotest.(check bool) "durations with timings" true
    (contains ~affix:" ms  [n=2]" timed)

let synthetic ?(l_start = 0) ~parent id =
  { Trace.sp_id = id; sp_parent = parent; sp_name = id; sp_proc = "p";
    sp_l_start = l_start; sp_l_end = l_start + 1; sp_counters = [] }

(* Worker shard spans all open at logical 0, so the id decides their
   order: "0.s2" before "0.s10". *)
let test_sibling_order () =
  let root = synthetic ~parent:"" "0" in
  let shards =
    List.init 12 (fun i -> synthetic ~parent:"0" (Fmt.str "0.s%d" i))
  in
  let ids spans = List.map (fun s -> s.Trace.sp_id) spans in
  let lexical =
    List.sort (fun a b -> compare a.Trace.sp_id b.Trace.sp_id) shards
  in
  let t = Trace.tree ~spans:(root :: lexical) ~walls:[] in
  Alcotest.(check (list string)) "12 shards in numeric order" (ids shards)
    (ids (Trace.children t root));
  let mixed =
    [ synthetic ~parent:"0" "0.s0"; synthetic ~parent:"0" "0.12";
      synthetic ~parent:"0" "0.3"; synthetic ~l_start:5 ~parent:"0" "0.1";
      synthetic ~parent:"0" "0.1x0" ]
  in
  let t = Trace.tree ~spans:(root :: mixed) ~walls:[] in
  Alcotest.(check (list string)) "logical start, then numbers, then minted"
    [ "0.1x0"; "0.3"; "0.12"; "0.s0"; "0.1" ]
    (ids (Trace.children t root))

(* Each pipeline stage is one span under the caller's open span, with
   the stage's counters in recording order. *)
let test_pipeline_spans () =
  let m = (Option.get (Catalog.find "kmeans")).Catalog.build () in
  let shape f =
    let r = Trace.create ~trace:"t" ~proc:"p" () in
    let res = Trace.span r "config" (fun () -> f r) in
    let spans = spans_of r in
    let last = List.nth spans (List.length spans - 1) in
    Alcotest.(check (option int)) "last stage counts the result"
      (Some (Stats.of_program res.Pipeline.program).Stats.total)
      (List.assoc_opt "instructions" last.Trace.sp_counters);
    List.map
      (fun s ->
        let counters = List.map fst s.Trace.sp_counters in
        (s.Trace.sp_id, (s.Trace.sp_parent, (s.Trace.sp_name, counters))))
      spans
  in
  let stages ?(config = []) xs =
    ("0", ("", ("config", config)))
    :: List.mapi (fun i (n, cs) -> (Fmt.str "0.%d" i, ("0", (n, cs)))) xs
  in
  let grown = [ "instructions"; "duplicated"; "checkers" ] in
  let check label expected f =
    Alcotest.(
      check (list (pair string (pair string (pair string (list string))))))
      label expected (shape f)
  in
  check "raw" (stages [ ("compile", [ "instructions" ]) ]) (fun recorder ->
      Pipeline.raw ~recorder m);
  check "raw, optimized"
    (stages
       [ ("compile", [ "instructions" ]); ("peephole", [ "instructions" ]) ])
    (fun recorder -> Pipeline.raw ~recorder ~optimize:true m);
  check "ir-eddi"
    (stages [ ("protect.ir-eddi", []); ("compile", grown) ])
    (fun recorder -> Pipeline.protect ~recorder Technique.Ir_level_eddi m);
  check "hybrid"
    (stages
       [ ("protect.hybrid",
          [ "protected"; "skipped" ] @ grown @ [ "instrumentation" ]) ])
    (fun recorder ->
      Pipeline.protect ~recorder Technique.Hybrid_assembly_eddi m);
  check "ferrum"
    (stages
       [ ("compile", [ "instructions" ]);
         ("protect.ferrum",
          [ "spare_gprs"; "spare_simd"; "simd_batched"; "general_protected";
            "comparisons_protected"; "flushes"; "requisitions" ]
          @ grown @ [ "instrumentation" ]) ])
    (fun recorder -> Pipeline.protect ~recorder Technique.Ferrum m);
  let r = Trace.create ~trace:"t" ~proc:"p" () in
  ignore (Pipeline.lint ~recorder:r (Pipeline.raw m));
  match spans_of r with
  | [ s ] ->
    Alcotest.(check (list string)) "lint counters"
      [ "findings"; "lint_errors"; "uncovered_sites" ]
      (List.map fst s.Trace.sp_counters)
  | spans -> Alcotest.failf "expected one lint span, got %d" (List.length spans)

(* ---- ids and contexts ---- *)

let test_traceparent_roundtrip () =
  let trace = Trace.derive_id ~seed:42L "salt" in
  Alcotest.(check int) "16 hex chars" 16 (String.length trace);
  String.iter
    (fun c ->
      Alcotest.(check bool) "hex digit" true
        ((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')))
    trace;
  (* deterministic, and sensitive to both seed and salt *)
  Alcotest.(check string) "derive_id stable" trace
    (Trace.derive_id ~seed:42L "salt");
  Alcotest.(check bool) "seed matters" false
    (String.equal trace (Trace.derive_id ~seed:43L "salt"));
  Alcotest.(check bool) "salt matters" false
    (String.equal trace (Trace.derive_id ~seed:42L "other"));
  let hdr = Trace.to_traceparent ~trace ~span:"0.3" in
  (match Trace.of_traceparent hdr with
  | Some (t, s) ->
    Alcotest.(check string) "trace survives" trace t;
    Alcotest.(check string) "span survives" "0.3" s
  | None -> Alcotest.fail "round-trip failed");
  List.iter
    (fun bad ->
      Alcotest.(check bool) (Fmt.str "reject %S" bad) true
        (Trace.of_traceparent bad = None))
    [ ""; "junk"; "00-xyz"; "00--0-01"; "00-abc-" ]

let test_ctx_make () =
  let c = Trace.ctx_make ~trace:"t" ~parent:"0.1" ~seg:"s4" in
  Alcotest.(check string) "child id" "0.1.s4" c.Trace.c_span;
  Alcotest.(check string) "parent" "0.1" c.Trace.c_parent;
  let root = Trace.ctx_make ~trace:"t" ~parent:"" ~seg:"j7" in
  Alcotest.(check string) "rootless child id" "j7" root.Trace.c_span

(* ---- recorder: deterministic ids, stitching ---- *)

let test_recorder_stitching () =
  let r = Trace.create ~trace:"feedc0defeedc0de" ~proc:"runner" () in
  let child_lines = ref [] in
  Trace.span r "campaign" (fun () ->
      Trace.counter r "samples" 10;
      Trace.span r "wave" (fun () -> Trace.advance r 100);
      (* a "remote" child continues the minted context *)
      let ctx = Trace.ctx_for r ~seg:"s0" in
      Alcotest.(check string) "minted under campaign" "0.s0"
        ctx.Trace.c_span;
      let w = Trace.scoped ctx ~proc:"worker-0" in
      Trace.span w "shard" (fun () -> Trace.advance w 40);
      child_lines := Trace.span_lines w;
      Trace.absorb r ~span_lines:!child_lines ~wall_lines:[];
      Trace.span r "merge" ignore);
  let lines = Trace.span_lines r in
  Alcotest.(check int) "4 spans" 4 (List.length lines);
  (match Trace.validate_stitched lines with
  | Ok root -> Alcotest.(check string) "single root" "0" root
  | Error e -> Alcotest.failf "stitching failed: %s" e);
  (* the document validates against its registered schema *)
  let doc = Json.to_string (Trace.header []) :: lines in
  (match
     Metrics.validate_lines ~kind:Trace.kind ~record_fields:Trace.fields doc
   with
  | Ok n -> Alcotest.(check int) "validated records" 4 n
  | Error e -> Alcotest.failf "schema validation failed: %s" e);
  (* child spans keep their parent links *)
  match Trace.rows_of_lines lines with
  | Error e -> Alcotest.failf "rows_of_lines: %s" e
  | Ok rows ->
    let spans = Trace.spans_of_rows rows in
    let shard = List.find (fun s -> s.Trace.sp_name = "shard") spans in
    Alcotest.(check string) "shard id" "0.s0" shard.Trace.sp_id;
    Alcotest.(check string) "shard parent" "0" shard.Trace.sp_parent;
    let campaign = List.find (fun s -> s.Trace.sp_name = "campaign") spans in
    Alcotest.(check (list (pair string int)))
      "campaign counters"
      [ ("samples", 10) ]
      campaign.Trace.sp_counters

let test_stitching_rejects () =
  let line ~id ~parent =
    Json.to_string
      (Trace.span_to_json ~trace:"t"
         { Trace.sp_id = id; sp_parent = parent; sp_name = "x";
           sp_proc = "p"; sp_l_start = 0; sp_l_end = 1; sp_counters = [] })
  in
  let expect_error label lines =
    match Trace.validate_stitched lines with
    | Ok _ -> Alcotest.failf "%s: expected rejection" label
    | Error _ -> ()
  in
  expect_error "empty" [];
  expect_error "two roots" [ line ~id:"0" ~parent:""; line ~id:"1" ~parent:"" ];
  expect_error "duplicate ids"
    [ line ~id:"0" ~parent:""; line ~id:"0" ~parent:"0" ];
  expect_error "orphan subtree"
    [ line ~id:"0" ~parent:""; line ~id:"5.0" ~parent:"5" ];
  (* a parent outside the document is the root (daemon job under a
     client traceparent) — but only one such entry may exist *)
  match
    Trace.validate_stitched
      [ line ~id:"j1" ~parent:"0"; line ~id:"j1.0" ~parent:"j1" ]
  with
  | Ok root -> Alcotest.(check string) "external parent root" "j1" root
  | Error e -> Alcotest.failf "external-parent trace must stitch: %s" e

(* ---- span-context round-trip across a real fork ---- *)

let test_fork_roundtrip () =
  let r = Trace.create ~trace:"ab12ab12ab12ab12" ~proc:"parent" () in
  Trace.span r "campaign" (fun () ->
      let ctx = Trace.ctx_for r ~seg:"s9" in
      let rd, wr = Unix.pipe () in
      match Unix.fork () with
      | 0 ->
        (* child: continue the context, ship closed spans back *)
        Unix.close rd;
        let w = Trace.scoped ctx ~proc:"worker-9" in
        Trace.span w "shard" (fun () ->
            Trace.advance w 17;
            Trace.span w "engine" (fun () -> Trace.counter w "walks" 3));
        let oc = Unix.out_channel_of_descr wr in
        List.iter
          (fun l ->
            output_string oc l;
            output_char oc '\n')
          (Trace.span_lines w);
        close_out oc;
        Unix._exit 0
      | pid ->
        Unix.close wr;
        let ic = Unix.in_channel_of_descr rd in
        let lines = ref [] in
        (try
           while true do
             lines := input_line ic :: !lines
           done
         with End_of_file -> ());
        close_in ic;
        let _, status = Unix.waitpid [] pid in
        Alcotest.(check bool) "child exited cleanly" true
          (status = Unix.WEXITED 0);
        Trace.absorb r ~span_lines:(List.rev !lines) ~wall_lines:[]);
  let lines = Trace.span_lines r in
  match Trace.validate_stitched lines with
  | Error e -> Alcotest.failf "fork trace does not stitch: %s" e
  | Ok root ->
    Alcotest.(check string) "root is the parent's span" "0" root;
    let spans =
      match Trace.rows_of_lines lines with
      | Ok rows -> Trace.spans_of_rows rows
      | Error e -> Alcotest.failf "rows: %s" e
    in
    let shard = List.find (fun s -> s.Trace.sp_name = "shard") spans in
    let engine = List.find (fun s -> s.Trace.sp_name = "engine") spans in
    Alcotest.(check string) "shard under campaign" "0" shard.Trace.sp_parent;
    Alcotest.(check string) "engine under shard" "0.s9"
      engine.Trace.sp_parent;
    Alcotest.(check string) "worker proc label" "worker-9"
      engine.Trace.sp_proc;
    Alcotest.(check (list (pair string int)))
      "engine counters survive the pipe"
      [ ("walks", 3) ]
      engine.Trace.sp_counters

(* ---- campaign traces: stitching + byte identity ---- *)

let test_campaign_trace () =
  let target = fixture_target () in
  let run () =
    Runner.run ~mode:Runner.Traced ~shards:2 ~seed:7L ~samples:20 target
  in
  let a = run () in
  (match Trace.validate_stitched a.Runner.trace_spans with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "campaign trace does not stitch: %s" e);
  let spans =
    match Trace.rows_of_lines a.Runner.trace_spans with
    | Ok rows -> Trace.spans_of_rows rows
    | Error e -> Alcotest.failf "rows: %s" e
  in
  let names = List.map (fun s -> s.Trace.sp_name) spans in
  List.iter
    (fun n ->
      Alcotest.(check bool) (Fmt.str "has %s span" n) true (List.mem n names))
    [ "campaign"; "round"; "shard"; "engine"; "merge"; "stats" ];
  Alcotest.(check int) "one shard span per shard" 2
    (List.length (List.filter (( = ) "shard") names));
  (* every span carries the same derived trace id *)
  let engine =
    List.find (fun s -> s.Trace.sp_name = "engine") spans
  in
  List.iter
    (fun c ->
      Alcotest.(check bool) ("engine counts " ^ c) true
        (List.mem_assoc c engine.Trace.sp_counters))
    [ "walks"; "prefix_steps"; "forward_steps"; "suffix_steps"; "converged";
      "skipped_steps"; "retraces"; "lockstep_steps" ];
  (* logical rows are byte-identical across reruns; wall rows exist
     but are never compared *)
  let b = run () in
  Alcotest.(check (list string)) "trace byte-identical across reruns"
    a.Runner.trace_spans b.Runner.trace_spans;
  Alcotest.(check bool) "wall sidecar populated" true
    (a.Runner.trace_walls <> [])

let test_campaign_trace_ctx () =
  (* a caller-provided context reparents the whole campaign *)
  let ctx = Trace.ctx_make ~trace:"deadbeefdeadbeef" ~parent:"j1" ~seg:"c" in
  let target = fixture_target () in
  let r =
    Runner.run ~mode:Runner.Inject ~shards:2 ~seed:3L ~samples:10 ~trace_ctx:ctx
      target
  in
  let spans =
    match Trace.rows_of_lines r.Runner.trace_spans with
    | Ok rows -> Trace.spans_of_rows rows
    | Error e -> Alcotest.failf "rows: %s" e
  in
  let campaign = List.find (fun s -> s.Trace.sp_name = "campaign") spans in
  Alcotest.(check string) "campaign keeps minted id" "j1.c"
    campaign.Trace.sp_id;
  Alcotest.(check string) "campaign parented externally" "j1"
    campaign.Trace.sp_parent;
  match Trace.validate_stitched r.Runner.trace_spans with
  | Ok root -> Alcotest.(check string) "minted root" "j1.c" root
  | Error e -> Alcotest.failf "does not stitch: %s" e

(* ---- exporters ---- *)

let exported_spans () =
  let target = fixture_target () in
  let r = Runner.run ~mode:Runner.Inject ~shards:2 ~seed:11L ~samples:10 target in
  match Trace.rows_of_lines r.Runner.trace_spans with
  | Ok rows -> (
    ( Trace.spans_of_rows rows,
      match Trace.rows_of_lines r.Runner.trace_walls with
      | Ok wrows -> Trace.walls_of_rows wrows
      | Error e -> Alcotest.failf "wall rows: %s" e ))
  | Error e -> Alcotest.failf "rows: %s" e

let test_perfetto_export () =
  let spans, walls = exported_spans () in
  let doc = Trace.perfetto ~spans ~walls in
  let events =
    match Json.member "traceEvents" doc with
    | Some (Json.Arr evs) -> evs
    | _ -> Alcotest.fail "traceEvents array missing"
  in
  Alcotest.(check int) "one event per span" (List.length spans)
    (List.length events);
  List.iter
    (fun ev ->
      (match Json.member "ph" ev with
      | Some (Json.Str "X") -> ()
      | _ -> Alcotest.fail "complete-event phase expected");
      (match Json.member "dur" ev with
      | Some (Json.Float d) ->
        Alcotest.(check bool) "non-negative duration" true (d >= 0.0)
      | _ -> Alcotest.fail "dur missing");
      match (Json.member "name" ev, Json.member "pid" ev) with
      | Some (Json.Str _), Some (Json.Int _) -> ()
      | _ -> Alcotest.fail "name/pid missing")
    events;
  (* the JSON re-parses: what a viewer loads is what we emitted *)
  match Json.of_string_opt (Json.to_string doc) with
  | Some _ -> ()
  | None -> Alcotest.fail "perfetto JSON does not re-parse"

let test_folded_export () =
  let spans, walls = exported_spans () in
  let well_formed lines =
    Alcotest.(check bool) "non-empty" true (lines <> []);
    List.iter
      (fun l ->
        match String.rindex_opt l ' ' with
        | None -> Alcotest.failf "no weight separator in %S" l
        | Some i ->
          let stack = String.sub l 0 i in
          let weight = String.sub l (i + 1) (String.length l - i - 1) in
          Alcotest.(check bool) "stack non-empty" true (stack <> "");
          Alcotest.(check bool)
            (Fmt.str "numeric weight in %S" l)
            true
            (match float_of_string_opt weight with
            | Some w -> w >= 0.0
            | None -> false))
      lines
  in
  (* wall-weighted (full sidecar): well-formed but not byte-compared *)
  well_formed (Trace.folded ~spans ~walls);
  (* logical-weighted (no sidecar): well-formed AND deterministic *)
  let logical = Trace.folded ~spans ~walls:[] in
  well_formed logical;
  Alcotest.(check (list string)) "logical weights deterministic" logical
    (let spans2, _ = exported_spans () in
     Trace.folded ~spans:spans2 ~walls:[])

(* Wall rows keep microseconds at epoch scale, and sidecars written
   with the canonical 12-digit float format still parse. *)
let test_wall_precision () =
  let w =
    { Trace.wl_span = "0"; wl_name = "shard"; wl_proc = "worker-0";
      wl_start = 1760671234.123456; wl_end = 1760671234.123506;
      wl_cpu_user = 0.25; wl_cpu_sys = 0.0; wl_maxrss_kb = 1024 }
  in
  let parse line =
    match Trace.rows_of_lines [ line ] with
    | Ok rows -> (
      match Trace.walls_of_rows rows with
      | [ w ] -> w
      | _ -> Alcotest.fail "expected one wall row")
    | Error e -> Alcotest.failf "wall row does not parse: %s" e
  in
  let back = parse (Trace.wall_line ~trace:"t" w) in
  Alcotest.(check (float 1e-6)) "50 us span survives" 50e-6
    (back.Trace.wl_end -. back.Trace.wl_start);
  Alcotest.(check (float 0.)) "cpu_user" 0.25 back.Trace.wl_cpu_user;
  Alcotest.(check int) "maxrss_kb" 1024 back.Trace.wl_maxrss_kb;
  let old =
    parse
      {|{"row":"wall","trace":"t","span":"0","name":"shard","proc":"worker-0","w_start":1760671234.12,"w_end":1760671234.13,"cpu_user":0.25,"cpu_sys":0.0,"maxrss_kb":1024}|}
  in
  Alcotest.(check (float 1e-6)) "12-digit row parses" 1760671234.13
    old.Trace.wl_end

(* A rendered 12-shard dashboard draws the worker shard spans in shard
   order (first appearance of each worker label in the icicle). *)
let test_icicle_shard_order () =
  let p = checked_program () in
  let target = F.prepare (Machine.load p) in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Fmt.str "ferrum-trace-%d-icicle" (Unix.getpid ()))
  in
  Fsutil.rm_rf dir;
  let manifest =
    Manifest.make ~benchmark:"fixture" ~technique:"raw" ~samples:24 ~seed:5L
      ~shards:12 ~fault_bits:1 ~all_sites:false ~traced:true ~program:p target
  in
  let result =
    Runner.run ~workers:2 ~mode:Runner.Traced ~shards:12 ~seed:5L ~samples:24
      target
  in
  Store.write_run ~dir ~manifest ~result ();
  let html =
    match Html.render_dir dir with
    | Ok html -> html
    | Error e -> Alcotest.failf "render_dir: %s" e
  in
  Fsutil.rm_rf dir;
  let first w = index_of ~affix:(Fmt.str "(worker-%d)" w) html in
  Alcotest.(check bool) "every worker drawn" true
    (List.for_all (fun w -> first w < max_int) (List.init 12 Fun.id));
  Alcotest.(check (list int)) "shards drawn in shard order"
    (List.init 12 Fun.id)
    (List.sort (fun a b -> compare (first a) (first b)) (List.init 12 Fun.id))

(* ---- malformed documents ---- *)

let test_rows_error_line_numbers () =
  let good =
    Json.to_string
      (Trace.span_to_json ~trace:"t"
         { Trace.sp_id = "0"; sp_parent = ""; sp_name = "a"; sp_proc = "p";
           sp_l_start = 0; sp_l_end = 1; sp_counters = [] })
  in
  match Trace.rows_of_lines [ good; "{\"not\":\"a row\"}" ] with
  | Ok _ -> Alcotest.fail "malformed row must be rejected"
  | Error e ->
    (* records start at document line 2, so the bad row is line 3 *)
    Alcotest.(check bool) (Fmt.str "line number in %S" e) true
      (contains ~affix:"line 3" e)

let () =
  Alcotest.run "trace"
    [ ( "span",
        [ Alcotest.test_case "nesting and counters" `Quick test_span_nesting;
          Alcotest.test_case "exception safety" `Quick test_span_exception;
          Alcotest.test_case "pp deterministic" `Quick test_span_pp;
          Alcotest.test_case "sibling order" `Quick test_sibling_order;
          Alcotest.test_case "pipeline stages" `Quick test_pipeline_spans ] );
      ( "ids",
        [ Alcotest.test_case "traceparent round-trip" `Quick
            test_traceparent_roundtrip;
          Alcotest.test_case "ctx_make" `Quick test_ctx_make ] );
      ( "stitching",
        [ Alcotest.test_case "recorder + absorb" `Quick
            test_recorder_stitching;
          Alcotest.test_case "incoherent traces rejected" `Quick
            test_stitching_rejects;
          Alcotest.test_case "row errors carry line numbers" `Quick
            test_rows_error_line_numbers ] );
      ( "fork",
        [ Alcotest.test_case "span context crosses fork" `Quick
            test_fork_roundtrip ] );
      ( "campaign",
        [ Alcotest.test_case "stitched, named, byte-identical" `Quick
            test_campaign_trace;
          Alcotest.test_case "caller context reparents" `Quick
            test_campaign_trace_ctx ] );
      ( "export",
        [ Alcotest.test_case "perfetto trace events" `Quick
            test_perfetto_export;
          Alcotest.test_case "folded stacks" `Quick test_folded_export;
          Alcotest.test_case "wall rows keep microseconds" `Quick
            test_wall_precision;
          Alcotest.test_case "dashboard icicle shard order" `Quick
            test_icicle_shard_order ] ) ]
