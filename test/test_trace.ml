(* Tests for the distributed-tracing subsystem (ferrum.trace.v1):
   deterministic span ids and stitching, traceparent propagation,
   span-context round-trip across a real fork, campaign trace byte
   identity, and the Perfetto / folded-flamegraph exporters. *)

open Ferrum_asm
module Machine = Ferrum_machine.Machine
module F = Ferrum_faultsim.Faultsim
module Json = Ferrum_telemetry.Json
module Metrics = Ferrum_telemetry.Metrics
module Trace = Ferrum_telemetry.Trace
module Runner = Ferrum_campaign.Runner

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

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  go 0

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
    [ "campaign"; "wave"; "shard"; "engine"; "merge"; "stats" ];
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
    [ "walks"; "suffix_steps"; "converged"; "skipped_steps" ];
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
    [ ( "ids",
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
          Alcotest.test_case "folded stacks" `Quick test_folded_export ] ) ]
