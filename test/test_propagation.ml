(* Tests for the fault-propagation tracer and the vulnerability-map
   campaigns: lockstep classification agreement, detection latency on a
   fixed seed, escape explanations for SDCs, v2 record schema,
   byte-reproducible vulnmap JSONL export, and the fast engines' traced
   samples against the scratch lockstep oracle. *)

open Ferrum_asm
module Machine = Ferrum_machine.Machine
module F = Ferrum_faultsim.Faultsim
module Propagation = F.Propagation
module Rng = Ferrum_faultsim.Rng
module Pipeline = Ferrum_eddi.Pipeline
module Technique = Ferrum_eddi.Technique
module Json = Ferrum_telemetry.Json
module Metrics = Ferrum_telemetry.Metrics
module Runner = Ferrum_campaign.Runner

let bench name = (Option.get (Ferrum_workloads.Catalog.find name)).build ()

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let protected_target name =
  let p = (Pipeline.protect Technique.Ferrum (bench name)).program in
  F.prepare (Machine.load p)

(* A raw program whose only eligible fault corrupts the printed value:
   every injection is an SDC, and the tracer must explain it. *)
let unprotected_print () =
  Prog.program
    [ Prog.func "main"
        [ Prog.block "main"
            [ Instr.original (Instr.Mov (Reg.Q, Instr.Imm 0L, Instr.Reg Reg.RDI));
              Instr.original (Instr.Call "print_i64");
              Instr.original Instr.Ret ] ] ]

(* ---- lockstep tracing ---- *)

let test_trace_matches_inject () =
  (* the tracer's observer must not perturb classification: for the same
     sample stream, trace_propagation and inject agree *)
  let t = protected_target "LUD" in
  let rng_a = Rng.create ~seed:11L and rng_b = Rng.create ~seed:11L in
  for _ = 1 to 25 do
    let sa = Rng.split rng_a and sb = Rng.split rng_b in
    let dyn_index = Rng.int sa t.F.eligible_steps in
    let _ = Rng.int sb t.F.eligible_steps in
    let cls_plain, fault_plain = F.inject t sa ~dyn_index in
    let cls_traced, fault_traced, _ = F.trace_propagation t sb ~dyn_index in
    Alcotest.(check string) "same class"
      (F.classification_name cls_plain)
      (F.classification_name cls_traced);
    Alcotest.(check string) "same dest" fault_plain.F.dest_desc
      fault_traced.F.dest_desc;
    Alcotest.(check int) "same bit" fault_plain.F.bit fault_traced.F.bit
  done

let test_detected_fault_has_latency () =
  (* fixed seed: hunt for a detected fault, then assert its latency is
     measured and positive, and that the divergence was recorded *)
  let t = protected_target "LUD" in
  let rng = Rng.create ~seed:1L in
  let rec hunt k =
    if k > 200 then Alcotest.fail "no detected fault in 200 samples"
    else
      let sample_rng = Rng.split rng in
      let dyn_index = Rng.int sample_rng t.F.eligible_steps in
      let cls, _, summary = F.trace_propagation t sample_rng ~dyn_index in
      if cls = F.Detected then summary else hunt (k + 1)
  in
  let summary = hunt 0 in
  Alcotest.(check bool) "program has checks" true
    summary.Propagation.program_has_checks;
  Alcotest.(check bool) "injection noted" true
    (summary.Propagation.injected_at <> None);
  match Propagation.detection_latency summary with
  | None -> Alcotest.fail "detected fault without latency"
  | Some (steps, cycles) ->
    Alcotest.(check bool) "positive step latency" true (steps > 0);
    Alcotest.(check bool) "positive cycle latency" true (cycles > 0.0);
    Alcotest.(check bool) "latency bounded by run" true
      (steps <= summary.Propagation.end_steps)

let test_sdc_explained_unprotected () =
  (* the raw print program: every flip is an SDC and the explanation is
     the absence of checkers *)
  let t = F.prepare (Machine.load (unprotected_print ())) in
  Alcotest.(check int) "one site" 1 t.F.eligible_steps;
  let rng = Rng.create ~seed:3L in
  let cls, _, summary = F.trace_propagation t (Rng.split rng) ~dyn_index:0 in
  Alcotest.(check string) "sdc" "sdc" (F.classification_name cls);
  Alcotest.(check bool) "no checks" false
    summary.Propagation.program_has_checks;
  (match Propagation.explain_escape summary with
  | Propagation.Unprotected_program -> ()
  | e -> Alcotest.failf "expected unprotected-program, got %s"
           (Propagation.escape_name e));
  Alcotest.(check bool) "output divergence seen" true
    (summary.Propagation.first_output_divergence_at <> None)

let test_benign_run_no_divergence_left () =
  (* hunt a benign injection and check the taint died out or never
     surfaced: benign means no corrupted output *)
  let t = protected_target "kNN" in
  let rng = Rng.create ~seed:2L in
  let rec hunt k =
    if k > 300 then Alcotest.fail "no benign fault in 300 samples"
    else
      let sample_rng = Rng.split rng in
      let dyn_index = Rng.int sample_rng t.F.eligible_steps in
      let cls, _, summary = F.trace_propagation t sample_rng ~dyn_index in
      if cls = F.Benign then summary else hunt (k + 1)
  in
  let summary = hunt 0 in
  Alcotest.(check bool) "no corrupted output" true
    (summary.Propagation.first_output_divergence_at = None)

(* ---- traced samples on the fast engines ----

   The fast engines run the prefix untraced and attach the tracer, with
   a lockstep golden replica, at the flip; the scratch engine observes
   every step from the start.  Both must yield the same classification,
   fault, record and summary for every sample. *)

(* The scratch engine's traced samples [0, n), built once per target
   and scope and checked against every fast engine. *)
let scratch_samples ?fault_bits reference ~seed ~n =
  List.init n (fun sample ->
      F.vulnmap_sample ?fault_bits reference ~seed ~sample)

(* [t]'s traced samples equal [expected], the scratch engine's. *)
let check_traced name ?fault_bits ~expected t ~seed =
  List.iteri
    (fun sample ((rc, _, _, rs) as want) ->
      let ((gc, _, _, gs) as got) =
        F.vulnmap_sample ?fault_bits t ~seed ~sample
      in
      if want <> got then
        Alcotest.failf "%s %s sample %d: scratch %s@.%a@.but %s@.%a" name
          (F.engine_name t.F.engine) sample (F.classification_name rc)
          Propagation.pp_summary rs (F.classification_name gc)
          Propagation.pp_summary gs)
    expected

(* ---- map inputs on demand ----

   A traced campaign window runs every fast-engine sample untraced: a
   Detected run's latency is measured from the flip, an SDC of a build
   without checkers escapes as unprotected, and only an SDC of a checked
   build runs again under the tracer.  What it hands to the map must be
   what the full tracer's summary gives. *)

(* A sample's record and map inputs, as one comparable line (floats by
   bit pattern). *)
let show_inputs (r : F.record) ~latency ~escape =
  Fmt.str "%s latency %s escape %s"
    (Json.to_string (F.record_to_json r))
    (match latency with
    | Some (steps, cycles) -> Printf.sprintf "%d/%h" steps cycles
    | None -> "-")
    (match escape with Some e -> Propagation.escape_name e | None -> "-")

(* [t]'s traced window over samples [0, n) against the full tracer:
   [reference s] is sample [s] traced on the scratch engine, asked for
   where the window's class carries a map input (Detected, SDC); the
   other classes must carry none.  (The records themselves are held to
   the scratch engine's by test_snapshot's window tests.)  The window
   must re-trace exactly the SDCs of a checked build; returns how many
   it re-traced. *)
let check_map_inputs name ?fault_bits ~reference ~n (t : F.target) ~seed =
  let want = Array.make n "" and have = Array.make n "" and sdcs = ref 0 in
  F.reset_phases t;
  F.run_window ?fault_bits ~traced:true ~site:(fun _ -> -1) t ~seed ~lo:0 ~n
    ~render:(fun _ r ~latency ~escape ->
      want.(r.F.sample) <-
        (match r.F.r_class with
        | F.Detected | F.Sdc ->
          let cls, _, wr, s = reference r.F.sample in
          if cls = F.Sdc then incr sdcs;
          Alcotest.(check bool) (name ^ ": has_checks")
            s.Propagation.program_has_checks t.F.has_checks;
          show_inputs wr
            ~latency:
              (if cls = F.Detected then Propagation.detection_latency s
               else None)
            ~escape:
              (if cls = F.Sdc then Some (Propagation.explain_escape s)
               else None)
        | _ -> show_inputs r ~latency:None ~escape:None);
      have.(r.F.sample) <- show_inputs r ~latency ~escape)
    ~emit:(fun _ ~steps:_ _ _ _ -> ());
  let label = name ^ " " ^ F.engine_name t.F.engine in
  Alcotest.(check (array string)) (label ^ ": map inputs") want have;
  let retraces = (F.phases t).F.ph_retraces in
  Alcotest.(check int) (label ^ ": retraces")
    (if t.F.has_checks then !sdcs else 0)
    retraces;
  retraces

(* Original-provenance [Mov $5, %rax] is the only site; the corrupted
   value is printed, then [%rax] and [%rdi] are overwritten, so the
   taint is gone while the output already differs.  A long tail follows
   in which the run equals the golden one but for its output. *)
let printed_then_masked () =
  let inert op = { Instr.op; prov = Instr.Instrumentation }
  and reg r = Instr.Reg r in
  Prog.program
    [ Prog.func "main"
        [ Prog.block "main"
            [ Instr.original (Instr.Mov (Reg.Q, Instr.Imm 5L, reg Reg.RAX));
              inert (Instr.Mov (Reg.Q, reg Reg.RAX, reg Reg.RDI));
              inert (Instr.Call "print_i64");
              inert (Instr.Mov (Reg.Q, Instr.Imm 0L, reg Reg.RAX));
              inert (Instr.Mov (Reg.Q, Instr.Imm 0L, reg Reg.RDI));
              inert (Instr.Mov (Reg.Q, Instr.Imm 0L, reg Reg.RCX)) ];
          Prog.block "tail"
            [ inert (Instr.Alu (Instr.Add, Reg.Q, Instr.Imm 1L, reg Reg.RCX));
              inert (Instr.Cmp (Reg.Q, Instr.Imm 2000L, reg Reg.RCX));
              inert (Instr.Jcc (Cond.NE, "tail")) ];
          Prog.block "done" [ inert Instr.Ret ] ] ]

let test_printed_then_masked_stays_sdc () =
  let img = Machine.load (printed_then_masked ()) in
  let reference = F.prepare ~engine:F.Scratch img in
  Alcotest.(check int) "one site" 1 reference.F.eligible_steps;
  let expected = scratch_samples reference ~seed:13L ~n:10 in
  List.iter
    (fun engine ->
      let t = F.prepare ~engine img in
      check_traced "printed-then-masked" ~expected t ~seed:13L;
      for sample = 0 to 9 do
        let cls, _, _, s = F.vulnmap_sample t ~seed:13L ~sample in
        Alcotest.(check string) "corrupted output stays an SDC" "sdc"
          (F.classification_name cls);
        Alcotest.(check (option int)) "printed at the third step" (Some 3)
          s.Propagation.first_output_divergence_at;
        Alcotest.(check int) "taint fully masked" 0
          (s.Propagation.reg_taint_at_end + s.Propagation.mem_taint_at_end)
      done;
      Alcotest.(check int) "no exit over differing output" 0
        (F.phases t).F.ph_converged)
    [ F.Pooled; F.Checkpointed 64; F.default_engine ]

(* All 32 catalogue targets (8 kernels x raw and three techniques) under
   both site scopes: the fast engines' traced samples equal the
   scratch oracle's. *)
let test_catalogue_traced_identity () =
  let seed = 29L and n = 5 in
  List.iter
    (fun (entry : Ferrum_workloads.Catalog.entry) ->
      let m = entry.build () in
      List.iter
        (fun (cname, (res : Pipeline.result)) ->
          let img = Machine.load res.Pipeline.program in
          let name = entry.name ^ "/" ^ cname in
          List.iter
            (fun scope ->
              let expected =
                scratch_samples (F.prepare ~scope ~engine:F.Scratch img) ~seed
                  ~n
              in
              List.iter
                (fun engine ->
                  let t = F.prepare ~scope ~engine img in
                  check_traced name ~expected t ~seed;
                  let reference = List.nth expected in
                  ignore (check_map_inputs name ~reference ~n t ~seed : int))
                [ F.Pooled; F.default_engine ])
            [ F.Original_only; F.All_sites ])
        (("raw", Pipeline.raw m)
        :: List.map
             (fun tech -> (Technique.short_name tech, Pipeline.protect tech m))
             Technique.all))
    Ferrum_workloads.Catalog.all

(* Random kernels, long enough to span several prefix blocks,
   under a random configuration and scope, with random flips. *)
let prop_random_traced_identity =
  QCheck.Test.make ~name:"traced exit matches scratch on random kernels"
    ~count:30
    QCheck.(
      quad Tgen.kernel_arbitrary (int_bound 3) bool (make QCheck.Gen.ui64))
    (fun (k, config, all_sites, seed) ->
      let m =
        Tgen.build_kernel { k with Tgen.iterations = 40 * k.Tgen.iterations }
      in
      let res =
        if config = 0 then Pipeline.raw m
        else Pipeline.protect (List.nth Technique.all (config - 1)) m
      in
      let img = Machine.load res.Pipeline.program in
      let scope = if all_sites then F.All_sites else F.Original_only in
      let expected =
        scratch_samples (F.prepare ~scope ~engine:F.Scratch img) ~seed ~n:6
      in
      List.iter
        (fun engine ->
          let t = F.prepare ~scope ~engine img in
          check_traced "random kernel" ~expected t ~seed)
        [ F.Pooled; F.Checkpointed 64 ];
      true)

(* The full tracer's sample [s] of [reference] (never the target under
   test), each computed once on first use and shared by every engine
   checked against it. *)
let memo_samples ?fault_bits reference ~seed =
  let memo = Hashtbl.create 64 in
  fun sample ->
    match Hashtbl.find_opt memo sample with
    | Some r -> r
    | None ->
      let r = F.vulnmap_sample ?fault_bits reference ~seed ~sample in
      Hashtbl.replace memo sample r;
      r

(* All 32 catalogue targets under both scopes and fault widths 1 and
   2: the traced windows of both fast engines hand the map what the
   full tracer gives, and some checked-build SDC was re-traced.  The
   reference is the default engine's full tracer, attached at the flip
   (the scratch engine's tracer observes every prefix step of both runs
   too, which costs minutes here); "catalogue matches scratch" holds it
   to the scratch engine's. *)
let test_catalogue_map_inputs () =
  let seed = 37L and n = 40 and retraces = ref 0 in
  List.iter
    (fun (entry : Ferrum_workloads.Catalog.entry) ->
      let m = entry.build () in
      List.iter
        (fun (cname, (res : Pipeline.result)) ->
          let img = Machine.load res.Pipeline.program in
          let name = entry.name ^ "/" ^ cname in
          List.iter
            (fun (scope, fault_bits) ->
              let reference =
                memo_samples ~fault_bits (F.prepare ~scope img) ~seed
              in
              List.iter
                (fun engine ->
                  retraces :=
                    !retraces
                    + check_map_inputs name ~fault_bits ~reference ~n
                        (F.prepare ~scope ~engine img) ~seed)
                [ F.Pooled; F.default_engine ])
            [ (F.Original_only, 1); (F.Original_only, 2); (F.All_sites, 1);
              (F.All_sites, 2) ])
        (("raw", Pipeline.raw m)
        :: List.map
             (fun tech -> (Technique.short_name tech, Pipeline.protect tech m))
             Technique.all))
    Ferrum_workloads.Catalog.all;
  if !retraces = 0 then Alcotest.fail "no checked-build SDC was re-traced"

(* Every catalogue IR-EDDI and hybrid target under both scopes: each
   re-trace of a traced window hands the map the full tracer's escape,
   and stops once that escape is decided, so that on every IR-EDDI
   target some re-trace stops before its run ends.  A re-trace's steps
   are the window's suffix steps between two renders, less those of the
   sample's own untraced run: the full tracer's run, from its flip to
   its end. *)
let test_catalogue_retraces_stop () =
  let seed = 42L and n = 60 and retraces = ref 0 in
  List.iter
    (fun (entry : Ferrum_workloads.Catalog.entry) ->
      let m = entry.build () in
      List.iter
        (fun tech ->
          let img = Machine.load (Pipeline.protect tech m).Pipeline.program in
          let name = entry.name ^ "/" ^ Technique.short_name tech in
          let stopped = ref 0 in
          List.iter
            (fun scope ->
              let reference = memo_samples (F.prepare ~scope img) ~seed in
              let t = F.prepare ~scope img in
              F.reset_phases t;
              let suffix = ref 0 and lockstep = ref 0 in
              F.run_window ~traced:true ~site:(fun _ -> -1) t ~seed ~lo:0 ~n
                ~render:(fun _ r ~latency:_ ~escape ->
                  let ph = F.phases t in
                  let steps = ph.F.ph_suffix_steps - !suffix
                  and locked = ph.F.ph_lockstep_steps - !lockstep in
                  suffix := ph.F.ph_suffix_steps;
                  lockstep := ph.F.ph_lockstep_steps;
                  if r.F.r_class = F.Sdc then begin
                    incr retraces;
                    let _, _, _, s = reference r.F.sample in
                    let label = Fmt.str "%s sample %d" name r.F.sample in
                    Alcotest.(check (option string)) (label ^ ": escape")
                      (Some (Propagation.escape_name
                               (Propagation.explain_escape s)))
                      (Option.map Propagation.escape_name escape);
                    let full =
                      s.Propagation.end_steps
                      - Option.get s.Propagation.injected_at + 1
                    in
                    let retraced = steps - full in
                    if retraced > full || locked > retraced then
                      Alcotest.failf
                        "%s: re-traced %d steps, %d in lockstep, of a %d-step \
                         suffix"
                        label retraced locked full;
                    if retraced < full then incr stopped
                  end)
                ~emit:(fun _ ~steps:_ _ _ _ -> ()))
            [ F.Original_only; F.All_sites ];
          if tech = Technique.Ir_level_eddi && !stopped = 0 then
            Alcotest.failf "%s: no re-trace stopped before its run's end" name)
        [ Technique.Ir_level_eddi; Technique.Hybrid_assembly_eddi ])
    Ferrum_workloads.Catalog.all;
  if !retraces = 0 then Alcotest.fail "no SDC was re-traced"

(* Random kernels, raw or checked, under either scope, flipping 1 to 4
   bits. *)
let prop_random_map_inputs =
  QCheck.Test.make ~name:"map inputs match the tracer on random kernels"
    ~count:40
    QCheck.(
      quad Tgen.kernel_arbitrary
        (pair (int_bound 3) bool)
        (int_range 1 4) (make QCheck.Gen.ui64))
    (fun (k, (config, all_sites), fault_bits, seed) ->
      let m =
        Tgen.build_kernel { k with Tgen.iterations = 40 * k.Tgen.iterations }
      in
      let res =
        if config = 0 then Pipeline.raw m
        else Pipeline.protect (List.nth Technique.all (config - 1)) m
      in
      let img = Machine.load res.Pipeline.program in
      let scope = if all_sites then F.All_sites else F.Original_only in
      let reference =
        memo_samples ~fault_bits (F.prepare ~scope ~engine:F.Scratch img) ~seed
      in
      List.iter
        (fun engine ->
          ignore
            (check_map_inputs "random kernel" ~fault_bits ~reference ~n:24
               (F.prepare ~scope ~engine img) ~seed
              : int))
        [ F.Pooled; F.Checkpointed 64 ];
      true)

(* ---- vulnerability maps ---- *)

let campaign mode img ~seed ~samples =
  Runner.run ~mode ~shards:1 ~seed ~samples (F.prepare img)

let vulnmap img ~seed ~samples =
  Option.get (campaign Runner.Traced img ~seed ~samples).Runner.vulnmap

let vulnmap_lines img ~seed ~samples =
  let buf = Buffer.create 4096 in
  let sink = Metrics.buffer_sink buf in
  let v = vulnmap img ~seed ~samples in
  Metrics.emit sink
    (Metrics.header ~kind:F.vulnmap_kind
       [ ("seed", Json.Str (Int64.to_string seed));
         ("samples", Json.Int samples) ]);
  List.iter (Metrics.emit sink) (F.vulnmap_rows v);
  Metrics.close sink;
  (v, Buffer.contents buf)

let test_vulnmap_schema_valid_and_reproducible () =
  let m = bench "Pathfinder" in
  let img = Machine.load (Pipeline.protect Technique.Ferrum m).program in
  let v, doc_a = vulnmap_lines img ~seed:7L ~samples:40 in
  let _, doc_b = vulnmap_lines img ~seed:7L ~samples:40 in
  Alcotest.(check string) "byte-identical per seed" doc_a doc_b;
  (match
     Metrics.validate_lines ~kind:F.vulnmap_kind
       ~record_fields:F.vulnmap_fields
       (Metrics.lines_of_string doc_a)
   with
  | Ok n -> Alcotest.(check bool) "rows exported" true (n > 0)
  | Error e -> Alcotest.failf "invalid vulnmap JSONL: %s" e);
  (* per-site counts sum back to the campaign totals *)
  let sum =
    Array.fold_left
      (fun acc (s : F.site_stat) -> acc + s.F.s_counts.F.samples)
      0 v.F.v_sites
  in
  Alcotest.(check int) "site samples partition campaign" v.F.v_counts.F.samples
    sum;
  Alcotest.(check int) "detected latencies collected"
    v.F.v_counts.F.detected
    (List.length v.F.v_latencies);
  Alcotest.(check int) "every sdc explained" v.F.v_counts.F.sdc
    (List.length v.F.v_escapes)

let test_vulnmap_matches_campaign () =
  (* the traced campaign must classify exactly as the plain one *)
  let m = bench "BFS" in
  let img = Machine.load (Pipeline.protect Technique.Ferrum m).program in
  let plain = campaign Runner.Inject img ~seed:4L ~samples:30 in
  let traced = vulnmap img ~seed:4L ~samples:30 in
  Alcotest.(check bool) "same counts" true
    (plain.Runner.counts = traced.F.v_counts)

let test_render_smoke () =
  let m = bench "Pathfinder" in
  let img = Machine.load (Pipeline.protect Technique.Ferrum m).program in
  let v = vulnmap img ~seed:7L ~samples:30 in
  let text = Ferrum_report.Vulnmap.render ~only_sampled:true v in
  Alcotest.(check bool) "mentions samples" true
    (String.length text > 0 && contains ~sub:"30 samples" text)

(* ---- v2 records ---- *)

let test_records_carry_structured_dest () =
  let m = bench "kmeans" in
  let img = Machine.load (Pipeline.raw m).program in
  let records =
    (Campaign_ref.run ~seed:5L ~samples:25 (F.prepare img)).Campaign_ref.records
  in
  Alcotest.(check int) "one record per sample" 25 (List.length records);
  List.iter
    (fun (r : F.record) ->
      let j = F.record_to_json r in
      (match Metrics.validate_fields F.record_fields j with
      | Ok () -> ()
      | Error e -> Alcotest.failf "invalid v2 record: %s" e);
      (* structured view must agree with the textual destination *)
      match (r.F.r_dest, Json.member "dest_kind" j) with
      | Some (F.Igpr _), Some (Json.Str "gpr") ->
        Alcotest.(check bool) "gpr desc" true
          (String.length r.F.dest > 0 && r.F.dest.[0] = '%')
      | Some (F.Isimd (x, lane)), Some (Json.Str "simd") ->
        Alcotest.(check string) "simd desc"
          (Fmt.str "%%xmm%d[%d]" x lane)
          r.F.dest
      | Some (F.Iflag _), Some (Json.Str "flags") ->
        Alcotest.(check bool) "flag desc" true
          (String.length r.F.dest > 6 && String.sub r.F.dest 0 6 = "flags.")
      | None, Some (Json.Str "none") -> ()
      | _ -> Alcotest.fail "dest_kind disagrees with structured dest")
    records

let () =
  Alcotest.run "propagation"
    [
      ( "trace",
        [ Alcotest.test_case "matches inject" `Quick test_trace_matches_inject;
          Alcotest.test_case "detected has latency" `Quick
            test_detected_fault_has_latency;
          Alcotest.test_case "sdc explained (unprotected)" `Quick
            test_sdc_explained_unprotected;
          Alcotest.test_case "benign leaves no corrupted output" `Quick
            test_benign_run_no_divergence_left ] );
      ( "convergence",
        [ Alcotest.test_case "printed then masked stays sdc" `Quick
            test_printed_then_masked_stays_sdc;
          Alcotest.test_case "catalogue matches scratch" `Slow
            test_catalogue_traced_identity;
          QCheck_alcotest.to_alcotest prop_random_traced_identity ] );
      ( "map inputs",
        [ Alcotest.test_case "catalogue matches the tracer" `Slow
            test_catalogue_map_inputs;
          Alcotest.test_case "catalogue re-traces stop when decided" `Slow
            test_catalogue_retraces_stop;
          QCheck_alcotest.to_alcotest prop_random_map_inputs ] );
      ( "vulnmap",
        [ Alcotest.test_case "schema valid + reproducible" `Quick
            test_vulnmap_schema_valid_and_reproducible;
          Alcotest.test_case "matches plain campaign" `Quick
            test_vulnmap_matches_campaign;
          Alcotest.test_case "render smoke" `Quick test_render_smoke ] );
      ( "records",
        [ Alcotest.test_case "structured dest (v2)" `Quick
            test_records_carry_structured_dest ] );
    ]
