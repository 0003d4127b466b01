(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section (see DESIGN.md's experiment index) and runs
   bechamel micro-benchmarks of the toolchain itself.

     dune exec bench/main.exe                 # full report (E1-E5)
     dune exec bench/main.exe -- fig10        # one artefact
     dune exec bench/main.exe -- ablation     # E6/E7/E10 + cost sensitivity
     dune exec bench/main.exe -- allsites     # E8
     dune exec bench/main.exe -- peephole     # E9
     dune exec bench/main.exe -- multibit     # E11
     dune exec bench/main.exe -- selective    # E12
     dune exec bench/main.exe -- lint         # E14
     dune exec bench/main.exe -- micro        # bechamel micro-benches
     dune exec bench/main.exe -- all --samples 1000 --csv out.csv  # paper-scale

   The default sample count (400 per configuration) keeps the default
   run under a couple of minutes; the paper used 1000. *)

module R = Ferrum_report
module Experiments = R.Experiments
module Render = R.Render
module Ablation = R.Ablation

let usage () =
  print_endline
    "usage: main.exe [table1|table2|fig10|fig11|exectime|outcomes|summary|\n\
    \                 ablation|allsites|multibit|peephole|selective|vulnmap|\n\
    \                 adaptive|perf|lint|micro|all]\n\
    \                [--samples N] [--seed N] [--shards N] [--csv PATH]\n\
    \                [--metrics PATH] [--vulnmap DIR] [--smoke]";
  exit 2

type cmd =
  | Table1 | Table2 | Fig10 | Fig11 | Exectime | Outcomes | Summary
  | AblationCmd | Allsites | Multibit | PeepholeCmd | Selective | VulnmapCmd
  | AdaptiveCmd | LintCmd | Micro | Perf | All
  | Default

let parse_args () =
  let cmd = ref Default in
  let samples = ref 400 in
  let seed = ref 2024L in
  let shards = ref 1 in
  let csv = ref None in
  let metrics = ref None in
  let vulnmap_dir = ref None in
  let smoke = ref false in
  let rec go = function
    | [] -> ()
    | "--samples" :: n :: rest ->
      samples := int_of_string n;
      go rest
    | "--seed" :: n :: rest ->
      seed := Int64.of_string n;
      go rest
    | "--shards" :: n :: rest ->
      shards := int_of_string n;
      go rest
    | "--csv" :: path :: rest ->
      csv := Some path;
      go rest
    | "--metrics" :: path :: rest ->
      metrics := Some path;
      go rest
    | "--vulnmap" :: dir :: rest ->
      vulnmap_dir := Some dir;
      go rest
    | "--smoke" :: rest ->
      smoke := true;
      go rest
    | arg :: rest ->
      (cmd :=
         match arg with
         | "table1" -> Table1
         | "table2" -> Table2
         | "fig10" -> Fig10
         | "fig11" -> Fig11
         | "exectime" -> Exectime
         | "outcomes" -> Outcomes
         | "summary" -> Summary
         | "ablation" -> AblationCmd
         | "allsites" -> Allsites
         | "multibit" -> Multibit
         | "peephole" -> PeepholeCmd
         | "selective" -> Selective
         | "vulnmap" -> VulnmapCmd
         | "adaptive" -> AdaptiveCmd
         | "lint" -> LintCmd
         | "micro" -> Micro
         | "perf" -> Perf
         | "all" -> All
         | _ -> usage ());
      go rest
  in
  go (List.tl (Array.to_list Sys.argv));
  (!cmd, !samples, !seed, !shards, !csv, !metrics, !vulnmap_dir, !smoke)

(* ------------------------------------------------------------------ *)
(* Detection-latency comparison across techniques (vulnmap campaigns). *)
(* ------------------------------------------------------------------ *)

module F = Ferrum_faultsim.Faultsim
module Json = Ferrum_telemetry.Json
module Metrics = Ferrum_telemetry.Metrics

(* Traced campaigns for every technique over the whole catalogue: how
   fast does each checking scheme catch the faults it catches, and how
   much escapes?  With [dir] set, each per-benchmark map is exported as
   DIR/<bench>.<technique>.jsonl (ferrum.vulnmap.v1). *)
let vulnmap_compare ~samples ~seed ~shards dir =
  (match dir with
  | Some d when not (Sys.file_exists d) -> Unix.mkdir d 0o755
  | _ -> ());
  let techniques = Ferrum_eddi.Technique.all in
  let rows =
    List.map
      (fun tech ->
        let latencies = ref [] in
        let counts = ref F.zero_counts in
        List.iter
          (fun (entry : Ferrum_workloads.Catalog.entry) ->
            let m = entry.build () in
            let p = (Ferrum_eddi.Pipeline.protect tech m).program in
            let img = Ferrum_machine.Machine.load p in
            let v =
              Option.get
                (Ferrum_campaign.Runner.run ~mode:Ferrum_campaign.Runner.Traced
                   ~shards ~seed ~samples (F.prepare img))
                  .Ferrum_campaign.Runner.vulnmap
            in
            latencies := List.rev_append v.F.v_latencies !latencies;
            counts :=
              {
                F.samples = (!counts).F.samples + v.F.v_counts.F.samples;
                benign = (!counts).F.benign + v.F.v_counts.F.benign;
                sdc = (!counts).F.sdc + v.F.v_counts.F.sdc;
                detected = (!counts).F.detected + v.F.v_counts.F.detected;
                crash = (!counts).F.crash + v.F.v_counts.F.crash;
                timeout = (!counts).F.timeout + v.F.v_counts.F.timeout;
              };
            match dir with
            | None -> ()
            | Some d ->
              let path =
                Filename.concat d
                  (Fmt.str "%s.%s.jsonl" entry.name
                     (Ferrum_eddi.Technique.short_name tech))
              in
              let sink = Metrics.file_sink path in
              Metrics.emit sink
                (Metrics.header ~kind:F.vulnmap_kind
                   [
                     ("benchmark", Json.Str entry.name);
                     ("technique",
                      Json.Str (Ferrum_eddi.Technique.short_name tech));
                     ("samples", Json.Int samples);
                     ("seed", Json.Str (Int64.to_string seed));
                     ("scope", Json.Str "original");
                     ("fault_bits", Json.Int 1);
                   ]);
              List.iter (Metrics.emit sink) (F.vulnmap_rows v);
              Metrics.close sink;
              Fmt.epr "[vulnmap] wrote %s@." path)
          Ferrum_workloads.Catalog.all;
        let steps = List.map fst !latencies in
        let sorted = List.sort compare steps in
        let n = List.length sorted in
        let pick p =
          if n = 0 then 0
          else
            List.nth sorted
              (max 0
                 (min (n - 1)
                    (int_of_float (ceil (p *. float_of_int n)) - 1)))
        in
        let mean =
          if n = 0 then 0.0
          else float_of_int (List.fold_left ( + ) 0 steps) /. float_of_int n
        in
        let c = !counts in
        let pct k =
          if c.F.samples = 0 then 0.0
          else float_of_int k /. float_of_int c.F.samples
        in
        [
          Ferrum_eddi.Technique.short_name tech;
          R.Ascii.percent (pct c.F.detected);
          R.Ascii.percent (pct c.F.sdc);
          Fmt.str "%.1f" mean;
          string_of_int (pick 0.5);
          string_of_int (pick 0.95);
          string_of_int (List.fold_left max 0 sorted);
        ])
      techniques
  in
  Fmt.str
    "Detection latency by technique (%d samples/benchmark, seed %Ld;\n\
     latency in retired instructions from flip to checker)@.%s"
    samples seed
    (R.Ascii.table
       ~header:
         [ "technique"; "detected"; "sdc"; "mean"; "p50"; "p95"; "max" ]
       ~rows)

(* ------------------------------------------------------------------ *)
(* E18: flat vs adaptive sample allocation at equal budget.            *)
(* ------------------------------------------------------------------ *)

module Stats = Ferrum_telemetry.Stats
module Runner = Ferrum_campaign.Runner

(* Flat (occurrence-proportional, the paper's protocol) and adaptive
   (CI-width-directed rounds) campaigns at the same total budget, on
   raw workloads, scored by the mean Wilson 95% half-width over the
   worst decile of vulnerability-map sites — the sites a flat campaign
   leaves least certain.  The budget is at least 4x the candidate-site
   count so either scheme can lift every site past a couple of
   samples. *)
let adaptive_compare ~samples ~seed =
  let rounds = 8 in
  let results =
    List.map
      (fun name ->
        let entry = Option.get (Ferrum_workloads.Catalog.find name) in
        let m = entry.Ferrum_workloads.Catalog.build () in
        let img =
          Ferrum_machine.Machine.load (Ferrum_eddi.Pipeline.raw m).program
        in
        let target = F.prepare img in
        let sites = Array.length (F.site_candidates target) in
        let budget = max samples (4 * sites) in
        let timed f =
          let t0 = Unix.gettimeofday () in
          let r = f () in
          (r, Unix.gettimeofday () -. t0)
        in
        let flat, flat_wall =
          timed (fun () ->
              Runner.run ~mode:Runner.Traced ~shards:1 ~seed ~samples:budget
                target)
        in
        let adaptive, adaptive_wall =
          timed (fun () ->
              Runner.run ~mode:Runner.Traced ~shards:1 ~seed ~samples:budget
                ~policy:{ Runner.rounds; target_ci = 0.0 }
                target)
        in
        let site_counts (r : Runner.result) i =
          (Option.get r.Runner.vulnmap).F.v_sites.(i).F.s_counts
        in
        let p_hat (c : F.counts) =
          if c.F.samples = 0 then 0.0
          else float_of_int c.F.sdc /. float_of_int c.F.samples
        in
        let candidates =
          List.filter
            (fun i -> target.F.eligible.(i))
            (List.init (Array.length target.F.eligible) Fun.id)
        in
        let ranked =
          List.sort
            (fun a b ->
              let d =
                compare
                  (p_hat (site_counts flat b))
                  (p_hat (site_counts flat a))
              in
              if d <> 0 then d else compare a b)
            candidates
        in
        let decile =
          let n = (List.length candidates + 9) / 10 in
          List.filteri (fun i _ -> i < n) ranked
        in
        let mean f =
          List.fold_left (fun acc i -> acc +. f i) 0.0 decile
          /. float_of_int (List.length decile)
        in
        let mean_hw r =
          mean (fun i ->
              let c = site_counts r i in
              Stats.half_width
                (Stats.wilson { Stats.n = c.F.samples; k = c.F.sdc }))
        in
        let mean_n r =
          mean (fun i -> float_of_int (site_counts r i).F.samples)
        in
        {
          R.Export.a_benchmark = name;
          a_budget = budget;
          a_rounds = rounds;
          a_sites = sites;
          a_decile = List.length decile;
          a_flat_n = mean_n flat;
          a_adaptive_n = mean_n adaptive;
          a_flat_hw = mean_hw flat;
          a_adaptive_hw = mean_hw adaptive;
          a_flat_wall = flat_wall;
          a_adaptive_wall = adaptive_wall;
        })
      [ "kNN"; "LUD" ]
  in
  let rows =
    List.map
      (fun (a : R.Export.adaptive_result) ->
        [
          a.R.Export.a_benchmark;
          string_of_int a.R.Export.a_sites;
          string_of_int a.R.Export.a_budget;
          Fmt.str "%.1f" a.R.Export.a_flat_n;
          Fmt.str "%.1f" a.R.Export.a_adaptive_n;
          Fmt.str "%.4f" a.R.Export.a_flat_hw;
          Fmt.str "%.4f" a.R.Export.a_adaptive_hw;
          R.Ascii.percent (R.Export.adaptive_savings a);
          Fmt.str "%.1f / %.1f" a.R.Export.a_flat_wall
            a.R.Export.a_adaptive_wall;
        ])
      results
  in
  let table =
    Fmt.str
      "Flat vs adaptive allocation at equal budget (seed %Ld, %d rounds;\n\
       n-bar and Wilson 95%% half-width averaged over the worst decile \
       of sites;\n\
       savings = 1 - (adaptive/flat)^2, the flat budget share directed \
       sampling saves)@.%s"
      seed rounds
      (R.Ascii.table
         ~header:
           [
             "benchmark"; "sites"; "budget"; "flat n"; "adpt n"; "flat hw";
             "adpt hw"; "savings"; "wall f/a";
           ]
         ~rows)
  in
  (table, results)

(* ------------------------------------------------------------------ *)
(* E14: static uncovered set vs dynamic checkable escapes.             *)
(* ------------------------------------------------------------------ *)

module Lint = Ferrum_analysis.Lint

(* Catalogue-wide lint + crossval at every protection level: the
   statically uncovered fraction should collapse as checking tightens,
   and every dynamically observed check-free escape must land inside
   the statically predicted uncovered set ("inclusion"). *)
let lint_compare ~samples ~seed =
  let configs = None :: List.map (fun t -> Some t) Ferrum_eddi.Technique.all in
  let rows =
    List.map
      (fun tech ->
        let name =
          match tech with
          | None -> "raw"
          | Some t -> Ferrum_eddi.Technique.short_name t
        in
        let errors = ref 0 and warnings = ref 0 and infos = ref 0 in
        let uncovered = ref 0 and eligible = ref 0 in
        let sdc = ref 0 and checkable = ref 0 and confirmed = ref 0 in
        let inclusion = ref true in
        List.iter
          (fun (entry : Ferrum_workloads.Catalog.entry) ->
            let m = entry.build () in
            let r =
              match tech with
              | None -> Ferrum_eddi.Pipeline.raw m
              | Some t -> Ferrum_eddi.Pipeline.protect t m
            in
            let report = Ferrum_eddi.Pipeline.lint r in
            let e = Lint.errors report and w = Lint.warnings report in
            errors := !errors + e;
            warnings := !warnings + w;
            infos := !infos + List.length report.Lint.r_findings - e - w;
            uncovered := !uncovered + List.length report.Lint.r_uncovered;
            eligible := !eligible + report.Lint.r_eligible;
            let o =
              R.Crossval.run ~seed ~samples r.Ferrum_eddi.Pipeline.program
            in
            sdc := !sdc + o.R.Crossval.c_sdc;
            checkable := !checkable + o.R.Crossval.c_checkable;
            confirmed := !confirmed + o.R.Crossval.c_confirmed;
            inclusion := !inclusion && R.Crossval.passed o)
          Ferrum_workloads.Catalog.all;
        [
          name;
          Fmt.str "%d/%d" !uncovered !eligible;
          string_of_int !errors;
          string_of_int !warnings;
          string_of_int !infos;
          string_of_int !sdc;
          Fmt.str "%d/%d" !confirmed !checkable;
          (if !inclusion then "yes" else "NO");
        ])
      configs
  in
  Fmt.str
    "Static uncovered set vs dynamic escapes (%d samples/benchmark, seed \
     %Ld;\n\
     inclusion = every checkable escape hit a statically uncovered site)@.%s"
    samples seed
    (R.Ascii.table
       ~header:
         [
           "technique"; "uncovered"; "err"; "warn"; "info"; "sdc";
           "confirmed"; "inclusion";
         ]
       ~rows)

(* ------------------------------------------------------------------ *)
(* E16: injection-engine throughput (scratch vs pooled vs checkpointed).*)
(* ------------------------------------------------------------------ *)

(* Golden-walk ns/step (best of 5) of [Predecode.exec] and of the
   reference interpreter the test suites check it against. *)
let walk_ns_per_step img =
  let module M = Ferrum_machine.Machine in
  let best run =
    List.init 5 (fun _ ->
        let st = M.fresh_state img in
        let t0 = Unix.gettimeofday () in
        ignore (run st);
        (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int st.M.steps)
    |> List.fold_left Float.min infinity
  in
  ( best Ferrum_machine.Predecode.(exec (decode img)),
    best (Ferrum_oracle.Ref_machine.run img) )

(* Campaign throughput per engine on the FERRUM-protected catalogue
   (each campaign timed from [prepare] to its merged counts, on one
   forked worker), outcome counts cross-checked across engines, and the golden walk's
   ns/step on the decoded loop and on the reference interpreter.
   [smoke] runs the first workload only and fails unless the decoded
   walk is the faster and ckpt beats scratch: the `make perf` gate. *)
let perf_compare ~samples ~seed ~smoke =
  let entries =
    if smoke then [ List.hd Ferrum_workloads.Catalog.all ]
    else Ferrum_workloads.Catalog.all
  in
  let failed = ref false in
  let results = ref [] in
  let rows =
    List.map
      (fun (entry : Ferrum_workloads.Catalog.entry) ->
        let m = entry.build () in
        let p =
          (Ferrum_eddi.Pipeline.protect Ferrum_eddi.Technique.Ferrum m)
            .program
        in
        let img = Ferrum_machine.Machine.load p in
        let timed engine =
          let t0 = Unix.gettimeofday () in
          let c = R.Experiments.campaign_counts ~engine ~seed ~samples img in
          (c, float_of_int samples /. (Unix.gettimeofday () -. t0))
        in
        let configs =
          [ ("scratch", timed F.Scratch);
            ("pooled", timed F.Pooled);
            ("predecoded", timed F.default_engine) ]
        in
        let reference = fst (snd (List.hd configs)) in
        List.iter
          (fun (name, (c, _)) ->
            if c <> reference then begin
              Fmt.epr
                "[perf] %s: %s configuration disagrees on outcome counts!@."
                entry.name name;
              failed := true
            end)
          configs;
        let sps name = snd (List.assoc name configs) in
        let scratch = sps "scratch" and pooled = sps "pooled" in
        let predecoded = sps "predecoded" in
        let exec_ns, oracle_ns = walk_ns_per_step img in
        if smoke && exec_ns >= oracle_ns then begin
          Fmt.epr
            "[perf] %s: decoded golden walk not faster than the reference \
             interpreter (%.1f vs %.1f ns/step)@."
            entry.name exec_ns oracle_ns;
          failed := true
        end;
        if smoke && predecoded < scratch then begin
          Fmt.epr
            "[perf] %s: predecoded ckpt slower than scratch (%.0f vs %.0f \
             samples/s)@."
            entry.name predecoded scratch;
          failed := true
        end;
        results :=
          { Ferrum_report.Export.p_benchmark = entry.name;
            p_scratch = scratch; p_pooled = pooled; p_predecoded = predecoded }
          :: !results;
        [
          entry.name;
          Fmt.str "%.0f" scratch;
          Fmt.str "%.0f" pooled;
          Fmt.str "%.0f" predecoded;
          Fmt.str "%.1f" exec_ns;
          Fmt.str "%.1f" oracle_ns;
        ])
      entries
  in
  let table =
    Fmt.str
      "Injection throughput by engine (samples/sec, %d samples, seed %Ld;\n\
       predecoded = ckpt-4096; exec/oracle = golden-walk ns/step)@.%s"
      samples seed
      (R.Ascii.table
         ~header:
           [ "benchmark"; "scratch"; "pooled"; "predecoded"; "exec ns";
             "oracle ns" ]
         ~rows)
  in
  if !failed then begin
    print_endline table;
    Fmt.epr "[perf] FAILED@.";
    exit 1
  end;
  (table, List.rev !results)

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the toolchain.                         *)
(* ------------------------------------------------------------------ *)

(* A fault-free run of [img] on a fresh state, decoded once outside the
   timed closure so the benchmark times execution only. *)
let simulate img =
  let module P = Ferrum_machine.Predecode in
  let pre = P.decode img in
  Bechamel.Staged.stage (fun () ->
      P.exec pre (Ferrum_machine.Machine.fresh_state img))

let micro () =
  let open Bechamel in
  let open Toolkit in
  let entry = List.hd Ferrum_workloads.Catalog.all in
  let m = entry.build () in
  let raw = Ferrum_eddi.Pipeline.raw m in
  let ferrum =
    Ferrum_eddi.Pipeline.protect Ferrum_eddi.Technique.Ferrum m
  in
  let raw_img = Ferrum_machine.Machine.load raw.program in
  let ferrum_img = Ferrum_machine.Machine.load ferrum.program in
  let tests =
    [
      Test.make ~name:"backend.compile"
        (Staged.stage (fun () -> Ferrum_eddi.Pipeline.raw m));
      Test.make ~name:"pass.ir-eddi"
        (Staged.stage (fun () -> Ferrum_eddi.Ir_eddi.protect m));
      Test.make ~name:"pass.hybrid"
        (Staged.stage (fun () -> Ferrum_eddi.Hybrid.protect m));
      Test.make ~name:"pass.ferrum"
        (Staged.stage (fun () ->
             Ferrum_eddi.Ferrum_pass.protect raw.program));
      Test.make ~name:"simulate.raw" (simulate raw_img);
      Test.make ~name:"simulate.ferrum" (simulate ferrum_img);
      (* the scratch path: a fresh state, every step observed *)
      Test.make ~name:"inject.one-fault"
        (Staged.stage
           (let target =
              Ferrum_faultsim.Faultsim.(prepare ~engine:Scratch ferrum_img)
            in
            let rng = Ferrum_faultsim.Rng.create ~seed:5L in
            fun () ->
              Ferrum_faultsim.Faultsim.inject target rng
                ~dyn_index:(target.eligible_steps / 2)));
      (* the fast path a campaign takes on the default engine: one
         campaign sample per run, cycling over 256 seeded samples *)
      Test.make ~name:"inject.fast-one-fault"
        (Staged.stage
           (let target = Ferrum_faultsim.Faultsim.prepare ferrum_img in
            let sample = ref 0 in
            fun () ->
              sample := (!sample + 1) land 255;
              Ferrum_faultsim.Faultsim.campaign_sample target ~seed:5L
                ~sample:!sample));
      (* the per-span cost every traced campaign pays: recorder setup,
         one span open/close with its wall+rusage readings, one counter *)
      Test.make ~name:"trace.span"
        (Staged.stage (fun () ->
             let module Trace = Ferrum_telemetry.Trace in
             let tr = Trace.create ~trace:"bench" ~proc:"bench" () in
             Trace.span tr "span" (fun () ->
                 Trace.counter tr "n" 1;
                 Trace.advance tr 1)));
    ]
  in
  let benchmark test =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    let instances = Instance.[ monotonic_clock ] in
    let cfg =
      Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 10) ()
    in
    let raw_results = Benchmark.all cfg instances test in
    List.map (fun instance -> Analyze.all ols instance raw_results) instances
  in
  Fmt.pr "Micro-benchmarks (bechamel; %s workload, ns per run)@."
    entry.name;
  let grouped = Test.make_grouped ~name:"ferrum" ~fmt:"%s %s" tests in
  let results = benchmark grouped in
  List.iter
    (fun tbl ->
      Hashtbl.iter
        (fun name ols ->
          match Bechamel.Analyze.OLS.estimates ols with
          | Some [ t ] -> Fmt.pr "  %-28s %12.1f ns/run@." name t
          | _ -> Fmt.pr "  %-28s (no estimate)@." name)
        tbl)
    results

(* ------------------------------------------------------------------ *)

let () =
  let cmd, samples, seed, shards, csv, metrics, vulnmap_dir, smoke =
    parse_args ()
  in
  let options perf_only =
    { Experiments.default_options with
      samples = (if perf_only then 0 else samples);
      seed; shards }
  in
  (* Per-experiment wall-clock timings and the last full result set, for
     the --metrics JSON (wall time lives only there, never in the
     deterministic per-benchmark results). *)
  let timings = ref [] in
  let timed name f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    timings := (name, Unix.gettimeofday () -. t0) :: !timings;
    r
  in
  let captured = ref [] in
  let captured_adaptive = ref [] in
  let captured_perf = ref [] in
  let run_adaptive () =
    let table, results =
      timed "adaptive" (fun () -> adaptive_compare ~samples ~seed)
    in
    captured_adaptive := results;
    table
  in
  let run_perf ~smoke =
    let table, results =
      timed "perf" (fun () -> perf_compare ~samples ~seed ~smoke)
    in
    captured_perf := results;
    table
  in
  let run ?(perf_only = false) () =
    let name = if perf_only then "experiments(perf)" else "experiments" in
    let r = timed name (fun () -> Experiments.run ~options:(options perf_only) ()) in
    captured := r;
    r
  in
  let maybe_csv results =
    match csv with
    | Some path ->
      Ferrum_report.Export.write_csv path results;
      Fmt.pr "(wrote %s)@." path
    | None -> ()
  in
  let print_all ~with_outcomes () =
    let results = run () in
    maybe_csv results;
    print_endline (Render.table1 ());
    print_newline ();
    print_endline (Render.table2 results);
    print_newline ();
    print_endline (Render.fig10 results);
    print_endline (Render.fig11 results);
    print_endline (Render.exec_time results);
    if with_outcomes then begin
      print_newline ();
      print_endline (Render.outcome_table results)
    end;
    print_newline ();
    print_endline (Render.summary results)
  in
  (match cmd with
  | Default ->
    print_all ~with_outcomes:false ();
    print_newline ();
    print_endline (run_adaptive ());
    print_newline ();
    print_endline (run_perf ~smoke:false)
  | All ->
    print_all ~with_outcomes:true ();
    print_newline ();
    print_endline (run_adaptive ());
    print_newline ();
    print_endline
      (timed "ablation" (fun () ->
           Ablation.render (Ablation.run ~samples:(samples / 2) ())));
    print_newline ();
    print_endline
      (timed "allsites" (fun () -> Ablation.all_sites ~samples:(samples / 2) ()));
    print_newline ();
    print_endline
      (timed "multibit" (fun () -> Ablation.multibit ~samples:(samples / 2) ()));
    print_newline ();
    print_endline
      (timed "peephole" (fun () ->
           Ablation.optimized_backend ~samples:(samples / 2) ()));
    print_newline ();
    print_endline
      (timed "selective" (fun () -> R.Selective.render ~samples:(samples / 2) ()));
    print_newline ();
    timed "micro" micro
  | Table1 -> print_endline (Render.table1 ())
  | Table2 -> print_endline (Render.table2 (run ~perf_only:true ()))
  | Fig10 -> print_endline (Render.fig10 (run ()))
  | Fig11 -> print_endline (Render.fig11 (run ~perf_only:true ()))
  | Exectime -> print_endline (Render.exec_time (run ~perf_only:true ()))
  | Outcomes -> print_endline (Render.outcome_table (run ()))
  | Summary -> print_endline (Render.summary (run ()))
  | AblationCmd ->
    print_endline (Ablation.render (Ablation.run ~samples ()))
  | Allsites -> print_endline (Ablation.all_sites ~samples ())
  | Multibit -> print_endline (Ablation.multibit ~samples ())
  | PeepholeCmd -> print_endline (Ablation.optimized_backend ~samples ())
  | Selective -> print_endline (R.Selective.render ~samples ())
  | VulnmapCmd ->
    print_endline
      (timed "vulnmap" (fun () ->
           vulnmap_compare ~samples ~seed ~shards vulnmap_dir))
  | AdaptiveCmd -> print_endline (run_adaptive ())
  | LintCmd ->
    print_endline (timed "lint" (fun () -> lint_compare ~samples ~seed))
  | Perf -> print_endline (run_perf ~smoke)
  | Micro -> micro ());
  match metrics with
  | Some path ->
    Ferrum_report.Export.write_metrics_json ~adaptive:!captured_adaptive
      ~perf:!captured_perf path ~samples ~seed
      ~experiments:(List.rev !timings) !captured;
    Fmt.pr "(wrote %s)@." path
  | None -> ()
