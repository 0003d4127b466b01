(* ferrum — command-line front end for the toolchain.

   Subcommands:
     list                      benchmark catalogue (paper Table II)
     ir BENCH                  print the mini-IR of a benchmark
     compile BENCH [-p TECH]   print (protected) assembly
     run BENCH [-p TECH]       simulate and report output/cycles
     inject BENCH [-p TECH]    fault-injection campaign (+ JSONL metrics)
     trace BENCH [--fault]     execution trace / flight-recorder dump
     profile BENCH             per-opcode cycle and overhead breakdown
     metrics FILE              validate and summarise a metrics JSONL file
     vulnmap BENCH [-p TECH]   per-site vulnerability map + detection latency
     lint BENCH [-p TECH]      static protection verifier (+ --crossval)
     explain BENCH --fault S:I propagation trace of one campaign sample
     campaign BENCH --shards N sharded fork-pool campaign -> run directory
     serve --root DIR          campaign daemon: job queue + run store + SSE
     submit BENCH              POST a campaign job to a running daemon
     watch JOB                 stream a job's live events (SSE client)
     fetch PATH                GET a daemon path (stored artifacts, queue)
     report [ARTEFACT]         regenerate the paper's tables/figures *)

open Ferrum_machine
module F = Ferrum_faultsim.Faultsim
module Rng = Ferrum_faultsim.Rng
module Technique = Ferrum_eddi.Technique
module Pipeline = Ferrum_eddi.Pipeline
module Catalog = Ferrum_workloads.Catalog
module Lint = Ferrum_analysis.Lint
module Shadow = Ferrum_analysis.Shadow
module Json = Ferrum_telemetry.Json
module Metrics = Ferrum_telemetry.Metrics
module Profile = Ferrum_telemetry.Profile
module Events = Ferrum_telemetry.Events
module Stats = Ferrum_telemetry.Stats
module Trace = Ferrum_telemetry.Trace
module Runner = Ferrum_campaign.Runner
module Manifest = Ferrum_campaign.Manifest
module Store = Ferrum_campaign.Store
module Fsutil = Ferrum_campaign.Fsutil
module Queue = Ferrum_campaign.Queue
module Sse = Ferrum_telemetry.Sse
module Html = Ferrum_report.Html
module Serve = Ferrum_serve.Daemon
module Jobspec = Ferrum_serve.Spec
module Http = Ferrum_serve.Http
open Cmdliner

let find_bench name =
  match Catalog.find name with
  | Some e -> e
  | None ->
    Fmt.epr "unknown benchmark %S; try: %s@." name
      (String.concat ", " Catalog.names);
    exit 1

let technique_conv =
  let parse s =
    match Technique.of_short_name s with
    | Some t -> Ok t
    | None -> Error (`Msg "expected ir-eddi, hybrid or ferrum")
  in
  let print ppf t = Fmt.string ppf (Technique.short_name t) in
  Arg.conv (parse, print)

let bench_arg =
  let doc = "Benchmark name (see `ferrum list')." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCH" ~doc)

let protect_arg =
  let doc = "Protection technique: ir-eddi, hybrid or ferrum." in
  Arg.(value & opt (some technique_conv) None & info [ "p"; "protect" ] ~doc)

let samples_arg =
  let doc = "Number of fault injections to sample." in
  Arg.(value & opt int 400 & info [ "samples" ] ~doc)

let seed_arg =
  let doc = "PRNG seed; campaigns are bit-reproducible for a given seed." in
  Arg.(value & opt int64 2024L & info [ "seed" ] ~doc)

let all_sites_arg =
  let doc =
    "Also inject into duplicated/checker/instrumentation instructions \
     (DESIGN.md experiment E8)."
  in
  Arg.(value & flag & info [ "all-sites" ] ~doc)

let fault_bits_arg =
  let doc = "Bits flipped per fault (>1 reproduces multi-bit upsets, E11)." in
  Arg.(value & opt int 1 & info [ "fault-bits" ] ~doc)

(* Execution engine: checkpointed by default, `--no-checkpoints` falls
   back to the pooled scratch path.  Both are bit-identical to the
   historical scratch engine; the escape hatch exists for debugging and
   perf comparison. *)
let checkpoint_interval_arg =
  let doc =
    "Golden-run checkpoint spacing in dynamic instructions; each \
     injection resumes from the nearest checkpoint below its flip \
     point."
  in
  Arg.(value & opt int 4096 & info [ "checkpoint-interval" ] ~docv:"N" ~doc)

let no_checkpoints_arg =
  let doc =
    "Disable golden-run checkpoints (injections re-execute from program \
     start on a pooled state).  Results are bit-identical either way."
  in
  Arg.(value & flag & info [ "no-checkpoints" ] ~doc)

let engine_term =
  let make interval no_checkpoints =
    if no_checkpoints then F.Pooled
    else begin
      if interval < 1 then begin
        Fmt.epr "ferrum: --checkpoint-interval must be >= 1@.";
        exit 2
      end;
      F.Checkpointed interval
    end
  in
  Term.(const make $ checkpoint_interval_arg $ no_checkpoints_arg)

let optimize_arg =
  let doc = "Run the backend peephole optimiser before protection (E9)." in
  Arg.(value & flag & info [ "O"; "optimize" ] ~doc)

let no_simd_arg =
  let doc = "Disable FERRUM's SIMD batching (E6 ablation)." in
  Arg.(value & flag & info [ "no-simd" ] ~doc)

let zmm_arg =
  let doc = "Batch eight results through ZMM registers (E10 extension)." in
  Arg.(value & flag & info [ "zmm" ] ~doc)

let liveness_arg =
  let doc =
    "Under register pressure, clobber liveness-proven dead registers \
     instead of push/pop requisition (paper SIII-B2)."
  in
  Arg.(value & flag & info [ "liveness" ] ~doc)

let spares_arg =
  let doc =
    "Cap the spare general-purpose registers FERRUM may use (E7: forces \
     stack-level requisition, paper Fig. 7)."
  in
  Arg.(value & opt (some int) None & info [ "max-spares" ] ~doc)

type knobs = {
  optimize : bool;
  ferrum_config : Ferrum_eddi.Ferrum_pass.config;
}

let knobs_term =
  let make optimize no_simd zmm liveness max_spares =
    {
      optimize;
      ferrum_config =
        {
          Ferrum_eddi.Ferrum_pass.use_simd = not no_simd;
          use_zmm = zmm;
          use_liveness = liveness;
          select = None;
          max_spare_gprs = max_spares;
          max_spare_simd = None;
        };
    }
  in
  Term.(
    const make $ optimize_arg $ no_simd_arg $ zmm_arg $ liveness_arg
    $ spares_arg)

let program_of ?technique knobs entry =
  let m = entry.Catalog.build () in
  match technique with
  | None -> (Pipeline.raw ~optimize:knobs.optimize m).program
  | Some t ->
    (Pipeline.protect ~ferrum_config:knobs.ferrum_config
       ~optimize:knobs.optimize t m)
      .program

(* ---- list ---- *)

let list_cmd =
  let run () =
    List.iter
      (fun (e : Catalog.entry) ->
        Fmt.pr "%-16s %-8s %s@." e.name e.suite e.domain)
      Catalog.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List the benchmark catalogue (Table II).")
    Term.(const run $ const ())

(* ---- ir ---- *)

let ir_cmd =
  let run bench =
    let e = find_bench bench in
    print_string (Ferrum_ir.Ir.to_string (e.build ()))
  in
  Cmd.v (Cmd.info "ir" ~doc:"Print the mini-IR of a benchmark.")
    Term.(const run $ bench_arg)

(* ---- compile ---- *)

let compile_cmd =
  let run bench technique knobs =
    let p = program_of ?technique knobs (find_bench bench) in
    print_string (Ferrum_asm.Printer.program_to_string p)
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:
         "Compile a benchmark to AT&T-syntax assembly, optionally protected.")
    Term.(const run $ bench_arg $ protect_arg $ knobs_term)

(* ---- run ---- *)

let run_cmd =
  let run bench technique knobs =
    let p = program_of ?technique knobs (find_bench bench) in
    let img = Machine.load p in
    let outcome, st = Predecode.run_fresh img in
    Fmt.pr "outcome: %a@." Machine.pp_outcome outcome;
    Fmt.pr "dynamic instructions: %d@." st.Machine.steps;
    Fmt.pr "model cycles: %.0f@." st.Machine.cycles.Machine.fv;
    Fmt.pr "static instructions: %d@." (Ferrum_asm.Prog.num_instructions p);
    match outcome with Machine.Exit _ -> () | _ -> exit 1
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Simulate a (optionally protected) benchmark.")
    Term.(const run $ bench_arg $ protect_arg $ knobs_term)

(* ---- inject ---- *)

let technique_name = function
  | Some t -> Technique.short_name t
  | None -> "raw"

let metrics_arg =
  let doc =
    "Stream one JSON record per injection to $(docv) (JSONL: a header \
     line, then site/opcode/destination/bit/classification/cycles per \
     sample; bit-reproducible for a given seed)."
  in
  Arg.(value & opt (some string) None
       & info [ "metrics" ] ~docv:"PATH" ~doc)

(* Live progress on stderr, driven by ferrum.events.v1 heartbeats —
   the one renderer behind `campaign`, `inject --progress` and
   `vulnmap --progress`.  Stdout stays deterministic; the carriage
   return keeps it to a single updating line. *)
let progress_renderer label =
  let shards = Hashtbl.create 8 in
  let budget = ref (-1) in
  let hw = ref 0.0 in
  fun (e : Events.t) ->
    (match e.Events.body with
    | Events.Shard_started { lo; hi } ->
      Hashtbl.replace shards e.Events.shard (0, hi - lo, 0)
    | Events.Progress { done_; total; clock; budget = b; hw = w; _ } ->
      Hashtbl.replace shards e.Events.shard (done_, total, clock);
      if b >= 0 then budget := b;
      if w > 0.0 then hw := w
    | Events.Shard_finished { done_; total; clock; _ } ->
      Hashtbl.replace shards e.Events.shard (done_, total, clock)
    | _ -> ());
    let done_, started, clock =
      Hashtbl.fold
        (fun _ (d, t, c) (ad, at, ac) -> (ad + d, at + t, ac + c))
        shards (0, 0, 0)
    in
    (* Denominator: the campaign's sample budget when heartbeats carry
       one (adaptive runs start shards round by round, so the sum of
       started shard ranges would undercount and the bar would jump),
       else the started total.  Only the campaign-finished event closes
       the line, with the interval of its own tally — the one the
       campaign prints — since an early-stopped adaptive campaign ends
       below its budget and the last heartbeat's interval is older. *)
    let total = if !budget > started then !budget else started in
    let finished, done_, clock =
      match e.Events.body with
      | Events.Campaign_finished { total = n; tally; clock } ->
        hw := Stats.half_width (Stats.wilson (Stats.make ~n ~k:tally.sdc));
        (true, n, clock)
      | _ -> (false, done_, clock)
    in
    if total > 0 then begin
      let eta = Events.eta ~done_ ~total ~clock in
      if !hw > 0.0 then
        Fmt.epr
          "\r[%s] %d/%d samples  clock %d  ci ±%.4f  eta ~%.0f steps   %!"
          label done_ total clock !hw eta
      else
        Fmt.epr "\r[%s] %d/%d samples  clock %d  eta ~%.0f steps   %!" label
          done_ total clock eta;
      if finished then Fmt.epr "@."
    end

let progress_arg =
  let doc =
    "Render live progress on stderr (heartbeat-driven; quiet by \
     default)."
  in
  Arg.(value & flag & info [ "progress" ] ~doc)

(* ---- adaptive allocation / stats flags (inject, vulnmap, campaign) ---- *)

let adaptive_arg =
  let doc =
    "Adaptive sample allocation: split the budget into rounds and \
     direct each round at the fault sites with the widest SDC \
     confidence intervals so far.  Byte-reproducible for a fixed seed."
  in
  Arg.(value & flag & info [ "adaptive" ] ~doc)

let rounds_arg =
  let doc = "Allocation rounds for $(b,--adaptive)." in
  Arg.(value & opt int 8 & info [ "rounds" ] ~docv:"N" ~doc)

let target_ci_arg =
  let doc =
    "With $(b,--adaptive), stop early once every reached site's Wilson \
     95% half-width is at or below $(docv) (0 disables early stop)."
  in
  Arg.(value & opt float 0.0 & info [ "target-ci" ] ~docv:"W" ~doc)

(* The allocation policy of a campaign: [None] (no --adaptive) is a
   flat campaign. *)
let policy_term =
  let make adaptive rounds target_ci =
    if adaptive then Some { Runner.rounds; target_ci } else None
  in
  Term.(const make $ adaptive_arg $ rounds_arg $ target_ci_arg)

let stats_out_arg =
  let doc =
    "Write the ferrum.stats.v1 convergence document (CI half-width vs \
     samples spent, per-site intervals, campaign interval) to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "stats" ] ~docv:"PATH" ~doc)

(* Write a campaign's [--metrics] or [--stats] file, when [path] is
   given: [header] of the campaign's configuration, then [lines ()]. *)
let write_campaign_file ~bench ~technique ~samples ~seed ~all_sites
    ~fault_bits header ~tag path lines =
  Option.iter
    (fun path ->
      Fsutil.write_file path
        (Store.jsonl
           (header ~benchmark:bench ~technique:(technique_name technique)
              ~samples ~seed ~all_sites ~fault_bits)
           (lines ()));
      Fmt.epr "[%s] wrote %s@." tag path)
    path

(* One campaign, flat or adaptive, on a single forked worker: the one
   execution path of inject, vulnmap and `cc --emit inject'. *)
let run_one_shard ?policy ~mode ~label ~all_sites ~engine ~fault_bits ~seed
    ~samples ~progress img =
  let scope = if all_sites then F.All_sites else F.Original_only in
  let on_event = if progress then Some (progress_renderer label) else None in
  try
    Runner.run ?on_event ?policy ~fault_bits ~mode ~shards:1 ~seed ~samples
      (F.prepare ~scope ~engine img)
  with Failure msg | Invalid_argument msg ->
    Fmt.epr "%s@." msg;
    exit 1

let print_early_stop ?policy ~samples (counts : F.counts) =
  match policy with
  | Some { Runner.target_ci; _ } when counts.F.samples < samples ->
    Fmt.pr "early stop: spent %d of %d budget (target ci %.4f)@."
      counts.F.samples samples target_ci
  | _ -> ()

let pp_campaign_interval ppf (counts : F.counts) =
  let t = F.sdc_tally counts in
  let w = Stats.wilson t and j = Stats.jeffreys t in
  Fmt.pf ppf
    "SDC probability: %.4f +/- %.4f (Wilson 95%%: [%.4f, %.4f]; Jeffreys: \
     [%.4f, %.4f])"
    (F.sdc_probability counts)
    (Stats.half_width w) w.Stats.lo w.Stats.hi j.Stats.lo j.Stats.hi

let inject_cmd =
  let run bench technique knobs samples seed all_sites fault_bits engine
      verbose metrics progress policy stats_out =
    let p = program_of ?technique knobs (find_bench bench) in
    let result =
      run_one_shard ?policy ~mode:Runner.Inject ~label:"inject" ~all_sites
        ~engine ~fault_bits ~seed ~samples ~progress (Machine.load p)
    in
    let write =
      write_campaign_file ~bench ~technique ~samples ~seed ~all_sites
        ~fault_bits
    in
    write Store.injection_header ~tag:"inject" metrics (fun () ->
        result.Runner.record_lines);
    write Store.stats_header ~tag:"stats" stats_out (fun () ->
        Runner.stats_lines result);
    Fmt.pr "%a@." F.pp_counts result.Runner.counts;
    Fmt.pr "%a@." pp_campaign_interval result.Runner.counts;
    print_early_stop ?policy ~samples result.Runner.counts;
    if verbose then
      List.iter
        (fun line ->
          let j = Json.of_string line in
          let field k = Option.get (Json.member k j) in
          match
            (field "class", field "dyn_index", field "dest", field "bit")
          with
          | Json.Str cls, Json.Int dyn, Json.Str dest, Json.Int bit ->
            Fmt.pr "  %-8s dyn=%-8d %s bit=%d@." cls dyn dest bit
          | _ -> assert false (* the shape of F.record_to_json *))
        result.Runner.record_lines
  in
  let verbose_arg =
    Arg.(value & flag
         & info [ "v"; "verbose" ]
             ~doc:"Print every fault, in sample order.")
  in
  Cmd.v
    (Cmd.info "inject"
       ~doc:
         "Fault-injection campaign: single bit flips in destination \
          registers of sampled dynamic instructions.")
    Term.(
      const run $ bench_arg $ protect_arg $ knobs_term $ samples_arg
      $ seed_arg $ all_sites_arg $ fault_bits_arg $ engine_term
      $ verbose_arg $ metrics_arg $ progress_arg $ policy_term
      $ stats_out_arg)

(* ---- trace: annotated execution trace / flight-recorder dump ---- *)

(* Replay seeded injections until one is caught (or otherwise ends the
   run), with a flight recorder attached; dump the window that led to
   the event.  Attempt k draws its fault from the same-seed campaign's
   sample-k stream ({!Rng.split_at}), so a fault found here is that
   campaign's sample.  Always the scratch path: the recorder observes
   every step. *)
let trace_fault ?technique ~bench ~seed ~attempts ~depth ~all_sites img =
  let scope = if all_sites then F.All_sites else F.Original_only in
  let t = F.prepare ~scope img in
  if t.F.eligible_steps = 0 then begin
    Fmt.epr "no eligible injection sites@.";
    exit 1
  end;
  let flight = Flight.create ~depth () in
  let rec hunt sample =
    if sample >= attempts then None
    else begin
      let sample_rng = Rng.split_at ~seed sample in
      let dyn_index = Rng.int sample_rng t.F.eligible_steps in
      Flight.clear flight;
      let cls, fault, st =
        F.inject_full ~observe:(Flight.observe flight img) t sample_rng
          ~dyn_index
      in
      match cls with
      | F.Benign -> hunt (sample + 1)
      | _ -> Some (sample, cls, fault, st)
    end
  in
  match hunt 0 with
  | None ->
    Fmt.pr "all %d sampled faults were benign; try more --samples@." attempts;
    exit 1
  | Some (sample, cls, fault, st) ->
    Fmt.pr "benchmark %s (%s): sample %d classified %s@." bench
      (match technique with
      | Some t -> Technique.short_name t
      | None -> "raw")
      sample (F.classification_name cls);
    Fmt.pr
      "fault: bit %d of %s at static index %d (dynamic write-back %d)@."
      fault.F.bit fault.F.dest_desc fault.F.static_index fault.F.dyn_index;
    Fmt.pr "run: %d instructions, %.0f model cycles@.@." st.Machine.steps
      st.Machine.cycles.Machine.fv;
    Fmt.pr "%a" Flight.pp flight

let trace_cmd =
  let run bench technique knobs limit skip fault seed attempts depth
      all_sites =
    let p = program_of ?technique knobs (find_bench bench) in
    let img = Machine.load p in
    if fault then
      trace_fault ?technique ~bench ~seed ~attempts ~depth ~all_sites img
    else
    let printed = ref 0 and seen = ref 0 in
    let on_step (st : Machine.state) idx =
      incr seen;
      if !seen > skip && !printed < limit then begin
        incr printed;
        let ins = img.Machine.code.(idx) in
        let dests =
          List.filter_map
            (function
              | Ferrum_asm.Instr.Dgpr (r, _) ->
                Some
                  (Fmt.str "%s=%Ld"
                     (Ferrum_asm.Reg.gpr_name r Ferrum_asm.Reg.Q)
                     st.Machine.gpr.{Ferrum_asm.Reg.gpr_index r})
              | Ferrum_asm.Instr.Dflags _ ->
                Some
                  (Fmt.str "zf=%b sf=%b" st.Machine.zf st.Machine.sf)
              | Ferrum_asm.Instr.Dsimd (x, lanes) ->
                Some
                  (Fmt.str "xmm%d[%d]=%Ld" x (List.hd lanes)
                     st.Machine.simd.{(x * 8) + List.hd lanes}))
            img.Machine.dests.(idx)
        in
        Fmt.pr "%8d  %-40s %s@." !seen
          (Ferrum_asm.Printer.string_of_instr ins.Ferrum_asm.Instr.op)
          (String.concat "  " dests)
      end
    in
    let outcome, st = Predecode.run_fresh ~on_step img in
    Fmt.pr "... %a after %d instructions@." Machine.pp_outcome outcome
      st.Machine.steps
  in
  let limit_arg =
    Arg.(value & opt int 60 & info [ "limit" ] ~doc:"Instructions to print.")
  in
  let skip_arg =
    Arg.(value & opt int 0 & info [ "skip" ] ~doc:"Instructions to skip first.")
  in
  let fault_arg =
    Arg.(value & flag
         & info [ "fault" ]
             ~doc:
               "Inject seeded faults until one is caught (or crashes or \
                times out) and dump the flight-recorder window that led \
                to the event.")
  in
  let attempts_arg =
    Arg.(value & opt int 400
         & info [ "samples" ]
             ~doc:"Max injections to try in --fault mode.")
  in
  let depth_arg =
    Arg.(value & opt int Flight.default_depth
         & info [ "depth" ]
             ~doc:"Flight-recorder depth (retired instructions kept).")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Print an annotated execution trace (each retired instruction \
          with the values it wrote), or, with --fault, the \
          flight-recorder dump of an injected fault's last instructions.")
    Term.(
      const run $ bench_arg $ protect_arg $ knobs_term $ limit_arg
      $ skip_arg $ fault_arg $ seed_arg $ attempts_arg $ depth_arg
      $ all_sites_arg)

(* ---- check: parse/validate/run assembly text ---- *)

let check_cmd =
  let run file execute =
    let ic = open_in_bin file in
    let text = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match Ferrum_asm.Parser.program text with
    | exception Ferrum_asm.Parser.Parse_error msg ->
      Fmt.epr "%s: %s@." file msg;
      exit 1
    | p -> (
      match Ferrum_asm.Prog.validate p with
      | exception Ferrum_asm.Prog.Ill_formed msg ->
        Fmt.epr "%s: ill-formed: %s@." file msg;
        exit 1
      | () ->
        let stats = Ferrum_asm.Stats.of_program p in
        Fmt.pr "%s: ok@.%a" file Ferrum_asm.Stats.pp stats;
        if execute then begin
          let outcome, st = Predecode.run_fresh (Machine.load p) in
          Fmt.pr "outcome: %a (%d instructions, %.0f cycles)@."
            Machine.pp_outcome outcome st.Machine.steps
            st.Machine.cycles.Machine.fv;
          match outcome with Machine.Exit _ -> () | _ -> exit 1
        end)
  in
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
           ~doc:"Assembly text in the dialect printed by `compile'.")
  in
  let exec_arg =
    Arg.(value & flag & info [ "run" ] ~doc:"Also simulate the program.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Parse and validate an assembly file (as printed by `compile'), \
          report its composition, and optionally simulate it.")
    Term.(const run $ file_arg $ exec_arg)

(* ---- stats: transform statistics ---- *)

(* Load and validate a ferrum.stats.v1 file; returns its parsed record
   rows (header excluded). *)
let load_stats_rows file =
  let lines =
    try Metrics.read_lines file
    with Sys_error msg ->
      Fmt.epr "%s@." msg;
      exit 1
  in
  match
    Metrics.validate_lines ~kind:Stats.kind ~record_fields:Stats.fields
      lines
  with
  | Error e ->
    Fmt.epr "%s: invalid stats file: %s@." file e;
    exit 1
  | Ok _ ->
    List.filteri (fun i _ -> i > 0) lines
    |> List.filter_map (fun l ->
           match Stats.row_of_string l with Ok r -> Some r | Error _ -> None)

let stats_campaign_row file rows =
  match List.find_opt (fun (r : Stats.row) -> r.Stats.row = "campaign") rows with
  | Some c -> c
  | None ->
    Fmt.epr "%s: no campaign row@." file;
    exit 1

let print_stats_summary file rows =
  let c = stats_campaign_row file rows in
  Fmt.pr "campaign: p=%.4f  wilson [%.4f, %.4f] ±%.4f  jeffreys [%.4f, \
          %.4f]  spent %d/%d@."
    c.Stats.p c.Stats.lo c.Stats.hi c.Stats.hw c.Stats.jlo c.Stats.jhi
    c.Stats.spent c.Stats.budget;
  let count kind =
    List.length (List.filter (fun (r : Stats.row) -> r.Stats.row = kind) rows)
  in
  Fmt.pr "rows: %d trace, %d round, %d site@." (count "trace")
    (count "round") (count "site");
  let sites =
    List.filter (fun (r : Stats.row) -> r.Stats.row = "site") rows
    |> List.sort (fun (a : Stats.row) (b : Stats.row) ->
           if a.Stats.hw = b.Stats.hw then compare a.Stats.index b.Stats.index
           else compare b.Stats.hw a.Stats.hw)
  in
  if sites <> [] then begin
    Fmt.pr "widest site intervals:@.";
    List.iteri
      (fun i (r : Stats.row) ->
        if i < 5 then
          Fmt.pr "  site %-5d p=%.4f ±%.4f  (%d samples, %d sdc)@."
            r.Stats.index r.Stats.p r.Stats.hw r.Stats.samples r.Stats.sdc)
      sites
  end

(* Two campaigns drift significantly only when their Wilson intervals
   are disjoint — overlapping intervals can't distinguish the runs at
   the interval's confidence level. *)
let compare_stats_files a b =
  let ca = stats_campaign_row a (load_stats_rows a) in
  let cb = stats_campaign_row b (load_stats_rows b) in
  Fmt.pr "%-40s p=%.4f  [%.4f, %.4f]@." (Filename.basename a) ca.Stats.p
    ca.Stats.lo ca.Stats.hi;
  Fmt.pr "%-40s p=%.4f  [%.4f, %.4f]@." (Filename.basename b) cb.Stats.p
    cb.Stats.lo cb.Stats.hi;
  let disjoint = ca.Stats.hi < cb.Stats.lo || cb.Stats.hi < ca.Stats.lo in
  if disjoint then begin
    Fmt.pr "drift: SIGNIFICANT (95%% intervals are disjoint)@.";
    exit 1
  end
  else Fmt.pr "drift: not significant (95%% intervals overlap)@."

let stats_cmd =
  let transform_stats bench knobs =
    let e = find_bench bench in
    let m = e.Catalog.build () in
    let raw = (Pipeline.raw ~optimize:knobs.optimize m).program in
    let p, fstats =
      Ferrum_eddi.Ferrum_pass.protect ~config:knobs.ferrum_config raw
    in
    let sraw = Ferrum_asm.Stats.of_program raw in
    let sprot = Ferrum_asm.Stats.of_program p in
    Fmt.pr "raw:@.%a@.ferrum:@.%a@." Ferrum_asm.Stats.pp sraw
      Ferrum_asm.Stats.pp sprot;
    Fmt.pr "static expansion: %.2fx@."
      (Ferrum_asm.Stats.expansion ~baseline:sraw ~protected_:sprot);
    Fmt.pr "transform: %a@." Ferrum_eddi.Ferrum_pass.pp_stats fstats
  in
  let run args knobs =
    match args with
    | [ a; b ] when Sys.file_exists a && Sys.file_exists b ->
      compare_stats_files a b
    | [ a ] when Sys.file_exists a -> print_stats_summary a (load_stats_rows a)
    | [ bench ] -> transform_stats bench knobs
    | _ ->
      Fmt.epr
        "expected a BENCH name, one ferrum.stats.v1 file, or two stats \
         files to compare@.";
      exit 1
  in
  let args_arg =
    let doc =
      "A benchmark name (static transform statistics), an existing \
       ferrum.stats.v1 file (confidence summary), or two stats files \
       (drift comparison; exits 1 when the campaigns' 95% intervals \
       are disjoint)."
    in
    Arg.(non_empty & pos_all string [] & info [] ~docv:"BENCH|FILE" ~doc)
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Static transform statistics for a benchmark, or confidence \
          summaries and drift comparison of ferrum.stats.v1 files.")
    Term.(const run $ args_arg $ knobs_term)

(* ---- profile: per-opcode cycles and overhead attribution ---- *)

let profile_cmd =
  let run bench technique knobs top timings json =
    let e = find_bench bench in
    let m = e.Catalog.build () in
    let techniques =
      match technique with Some t -> [ t ] | None -> Technique.all
    in
    (* One configuration ([None] = raw) through the pipeline under its
       own span recorder, loaded and profiled. *)
    let configure t =
      let recorder = Trace.create ~trace:e.Catalog.name ~proc:"profile" () in
      let r =
        match t with
        | None -> Pipeline.raw ~recorder ~optimize:knobs.optimize m
        | Some t ->
          Pipeline.protect ~recorder ~ferrum_config:knobs.ferrum_config
            ~optimize:knobs.optimize t m
      in
      let img = Machine.load r.Pipeline.program in
      (recorder, img, Profile.run img)
    in
    (* Raw baseline first: the reference for overhead attribution. *)
    let raw_recorder, raw_img, raw_profile = configure None in
    let raw_cycles = raw_profile.Profile.total_cycles in
    let overhead profile =
      100.0 *. (profile.Profile.total_cycles -. raw_cycles) /. raw_cycles
    in
    if json then begin
      (* One canonical JSON object: raw profile plus, per technique, the
         hot-opcode table, provenance overhead split and overhead vs
         raw.  No wall-clock values, so output is byte-stable. *)
      let tech_json t =
        let _, img, profile = configure (Some t) in
        Json.Obj
          [
            ("technique", Json.Str (Technique.short_name t));
            ("profile", Profile.to_json profile);
            ("dispatch", Profile.dispatch_to_json (Profile.dispatch img));
            ("overhead_pct",
             Json.Float (if raw_cycles > 0.0 then overhead profile else 0.0));
          ]
      in
      print_endline
        (Json.to_string
           (Json.Obj
              [
                ("benchmark", Json.Str e.Catalog.name);
                ("raw", Profile.to_json raw_profile);
                ("raw_dispatch",
                 Profile.dispatch_to_json (Profile.dispatch raw_img));
                ("techniques", Json.Arr (List.map tech_json techniques));
              ]));
      exit 0
    end;
    Fmt.pr "== %s, raw ==@." e.Catalog.name;
    Fmt.pr "pipeline:@.%a" (Trace.pp ~timings) raw_recorder;
    Fmt.pr "%a" (Profile.pp ~top) raw_profile;
    Fmt.pr "%a@." Profile.pp_dispatch (Profile.dispatch raw_img);
    List.iter
      (fun t ->
        let recorder, img, profile = configure (Some t) in
        Fmt.pr "== %s, %s ==@." e.Catalog.name (Technique.short_name t);
        Fmt.pr "pipeline:@.%a" (Trace.pp ~timings) recorder;
        Fmt.pr "%a" (Profile.pp ~top) profile;
        Fmt.pr "%a" Profile.pp_provenance profile;
        Fmt.pr "%a" Profile.pp_dispatch (Profile.dispatch img);
        if raw_cycles > 0.0 then begin
          Fmt.pr "overhead vs raw: %+.1f%%" (overhead profile);
          let contrib =
            List.filter_map
              (fun (p : Profile.prov_row) ->
                if p.Profile.p_cycles > 0.0 && p.Profile.prov <> Ferrum_asm.Instr.Original
                then
                  Some
                    (Fmt.str "%s %+.1f%%"
                       (Profile.prov_name p.Profile.prov)
                       (100.0 *. p.Profile.p_cycles /. raw_cycles))
                else None)
              profile.Profile.by_provenance
          in
          if contrib <> [] then
            Fmt.pr " (%s)" (String.concat ", " contrib);
          Fmt.pr "@."
        end;
        Fmt.pr "@.")
      techniques
  in
  let top_arg =
    Arg.(value & opt int 12
         & info [ "top" ] ~doc:"Hot-opcode rows to print (0 = all).")
  in
  let timings_arg =
    Arg.(value & flag
         & info [ "timings" ]
             ~doc:"Include wall-clock stage durations (non-deterministic).")
  in
  let json_arg =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:
               "Emit one canonical JSON object (hot-opcode table and \
                provenance overhead split per technique) instead of \
                tables.")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Per-opcode cycle breakdown of a benchmark under the cycle \
          model, pipeline-stage spans with transform counters, the \
          protection overhead attributed to duplicate / check / \
          instrumentation cycles, and predecoded-dispatch coverage \
          (fused superinstruction pairs and fast-path share).  Without \
          -p, profiles all three techniques against the raw baseline.")
    Term.(
      const run $ bench_arg $ protect_arg $ knobs_term $ top_arg
      $ timings_arg $ json_arg)

(* ---- metrics: validate and summarise a JSONL metrics file ---- *)

let metrics_cmd =
  let records lines = List.tl lines |> List.map Json.of_string in
  (* Count the string [field] over [records]; print the counts of the
     values in [order] that occur, names padded to [width]. *)
  let tally ~field ~width order records =
    let counts = Hashtbl.create 8 in
    List.iter
      (fun j ->
        match Json.member field j with
        | Some (Json.Str v) ->
          Hashtbl.replace counts v
            (1 + Option.value ~default:0 (Hashtbl.find_opt counts v))
        | _ -> ())
      records;
    List.iter
      (fun v ->
        match Hashtbl.find_opt counts v with
        | Some n -> Fmt.pr "  %-*s %d@." width v n
        | None -> ())
      order
  in
  (* Per-injection record files: outcome-class histogram. *)
  let summarize_injections lines =
    tally ~field:"class" ~width:8
      [ "benign"; "sdc"; "detected"; "crash"; "timeout" ]
      (records lines)
  in
  (* Vulnerability-map files: outcome classes summed over sites. *)
  let summarize_vulnmap lines =
    let sum = Hashtbl.create 8 in
    let classes = [ "samples"; "benign"; "sdc"; "detected"; "crash"; "timeout" ] in
    List.iteri
      (fun i line ->
        if i > 0 then
          let j = Json.of_string line in
          List.iter
            (fun c ->
              match Json.member c j with
              | Some (Json.Int n) ->
                Hashtbl.replace sum c
                  (n + Option.value ~default:0 (Hashtbl.find_opt sum c))
              | _ -> ())
            classes)
      lines;
    List.iter
      (fun c ->
        Fmt.pr "  %-8s %d@." c
          (Option.value ~default:0 (Hashtbl.find_opt sum c)))
      classes
  in
  (* Lint files: finding-kind histogram. *)
  let summarize_lint lines =
    tally ~field:"kind" ~width:20
      (List.map Shadow.kind_name Shadow.all_kinds @ [ "uncovered-site" ])
      (records lines)
  in
  (* Event logs: event-type histogram plus a full replay check. *)
  let summarize_events lines =
    tally ~field:"event" ~width:18
      [ "campaign_started"; "shard_started"; "progress"; "shard_retry";
        "shard_finished"; "campaign_finished" ]
      (records lines);
    match Events.replay (List.tl lines) with
    | Ok (tally, clock) ->
      Fmt.pr "  replay: %d samples (%d sdc, %d detected), clock %d@."
        (Events.tally_total tally) tally.Events.sdc tally.Events.detected
        clock
    | Error e ->
      Fmt.epr "event log does not replay: %s@." e;
      exit 1
  in
  (* Bench documents are one JSON object, not JSONL: validated by the
     header check alone; summarised by their experiment wall times. *)
  let summarize_bench lines =
    match lines with
    | [ doc ] -> (
      let j = Json.of_string doc in
      match Json.member "experiments" j with
      | Some (Json.Arr exps) ->
        List.iter
          (fun e ->
            match (Json.member "name" e, Json.member "wall_seconds" e) with
            | Some (Json.Str n), Some (Json.Float w) ->
              Fmt.pr "  %-24s %8.3f s@." n w
            | Some (Json.Str n), Some (Json.Int w) ->
              Fmt.pr "  %-24s %8d s@." n w
            | _ -> ())
          exps
      | _ -> ())
    | _ -> ()
  in
  (* Run-store indexes: one line per published run with its tallies. *)
  let summarize_runs lines =
    List.iteri
      (fun i line ->
        if i > 0 then
          let j = Json.of_string line in
          let s name =
            match Json.member name j with Some (Json.Str v) -> v | _ -> "?"
          in
          let n name =
            match Json.member name j with Some (Json.Int v) -> v | _ -> 0
          in
          let digest = s "digest" in
          Fmt.pr "  %-12s %-24s %6d samples %5d sdc %5d detected@."
            (if String.length digest > 12 then String.sub digest 0 12
             else digest)
            (s "benchmark" ^ "." ^ s "technique")
            (n "samples") (n "sdc") (n "detected"))
      lines
  in
  (* Job queues: job-state histogram plus the cache-hit count.  A
     queue journal holds one record per transition; the last record for
     an id is the job's state. *)
  let summarize_jobs lines =
    let jobs = Hashtbl.create 64 in
    List.iter
      (fun j ->
        match Json.member "id" j with
        | Some (Json.Int id) -> Hashtbl.replace jobs id j
        | _ -> ())
      (records lines);
    let latest = Hashtbl.fold (fun _ j acc -> j :: acc) jobs [] in
    tally ~field:"state" ~width:8 [ "pending"; "running"; "done"; "failed" ]
      latest;
    Fmt.pr "  cached   %d@."
      (List.length
         (List.filter
            (fun j ->
              match Json.member "cached" j with
              | Some (Json.Int c) -> c <> 0
              | _ -> false)
            latest))
  in
  (* Confidence telemetry: row-type histogram plus the campaign
     interval. *)
  let summarize_stats lines =
    let rows =
      List.filteri (fun i _ -> i > 0) lines
      |> List.filter_map (fun l ->
             match Stats.row_of_string l with
             | Ok r -> Some r
             | Error _ -> None)
    in
    List.iter
      (fun kind ->
        Fmt.pr "  %-8s %d@." kind
          (List.length
             (List.filter (fun (r : Stats.row) -> r.Stats.row = kind) rows)))
      [ "trace"; "round"; "site"; "campaign" ];
    match
      List.find_opt (fun (r : Stats.row) -> r.Stats.row = "campaign") rows
    with
    | Some c ->
      Fmt.pr "  campaign: p=%.4f wilson [%.4f, %.4f] ±%.4f, spent %d/%d@."
        c.Stats.p c.Stats.lo c.Stats.hi c.Stats.hw c.Stats.spent
        c.Stats.budget
    | None -> ()
  in
  (* Trace documents: per-process span counts plus the stitching
     check (skipped for the wall sidecar, which has no span rows). *)
  let summarize_trace lines =
    let records = List.filteri (fun i _ -> i > 0) lines in
    match Trace.rows_of_lines records with
    | Error e ->
      Fmt.epr "trace does not parse: %s@." e;
      exit 1
    | Ok rows ->
      let spans = Trace.spans_of_rows rows in
      let walls = Trace.walls_of_rows rows in
      let by_proc = Hashtbl.create 8 in
      let order = ref [] in
      List.iter
        (fun (s : Trace.span) ->
          if not (Hashtbl.mem by_proc s.Trace.sp_proc) then
            order := s.Trace.sp_proc :: !order;
          Hashtbl.replace by_proc s.Trace.sp_proc
            (1 + Option.value ~default:0 (Hashtbl.find_opt by_proc s.Trace.sp_proc)))
        spans;
      List.iter
        (fun p ->
          Fmt.pr "  %-12s %d spans@." p
            (Option.value ~default:0 (Hashtbl.find_opt by_proc p)))
        (List.rev !order);
      if walls <> [] then Fmt.pr "  wall     %d rows@." (List.length walls);
      if spans <> [] then begin
        match Trace.validate_stitched records with
        | Ok root -> Fmt.pr "  stitched: one trace, root span %s@." root
        | Error e ->
          Fmt.epr "trace does not stitch: %s@." e;
          exit 1
      end
  in
  (* The schema registry: adding a schema to `ferrum metrics` is one
     entry here.  [s_fields] validates each record line (failures are
     reported with their line number); [s_summarize] renders the
     post-validation summary. *)
  let registry =
    [
      (F.metrics_kind, F.record_fields, summarize_injections);
      (F.vulnmap_kind, F.vulnmap_fields, summarize_vulnmap);
      (Lint.metrics_kind, Lint.record_fields, summarize_lint);
      (Events.kind, Events.fields, summarize_events);
      (Stats.kind, Stats.fields, summarize_stats);
      (Trace.kind, Trace.fields, summarize_trace);
      (Store.run_kind, Store.run_fields, summarize_runs);
      (Queue.kind, Queue.fields, summarize_jobs);
      (Ferrum_report.Export.bench_kind, [], summarize_bench);
    ]
  in
  let run file =
    let lines =
      try Metrics.read_lines file
      with Sys_error msg ->
        Fmt.epr "%s@." msg;
        exit 1
    in
    let schema =
      match lines with
      | [] ->
        Fmt.epr "%s: empty metrics file@." file;
        exit 1
      | hdr :: _ -> (
        match Option.bind (Json.of_string_opt hdr) (Json.member "schema") with
        | Some (Json.Str k) -> k
        | _ ->
          Fmt.epr "%s: line 1: header lacks a schema field@." file;
          exit 1)
    in
    let record_fields, summarize =
      match
        List.find_opt (fun (kind, _, _) -> kind = schema) registry
      with
      | Some (_, fields, summarize) -> (fields, summarize)
      | None ->
        Fmt.epr "%s: unknown schema %S (expected one of: %s)@." file schema
          (String.concat ", " (List.map (fun (k, _, _) -> k) registry));
        exit 1
    in
    match Metrics.validate_lines ~kind:schema ~record_fields lines with
    | Error e ->
      Fmt.epr "%s: invalid metrics file: %s@." file e;
      exit 1
    | Ok n ->
      (match lines with
      | hdr :: _ -> Fmt.pr "header: %s@." hdr
      | [] -> ());
      Fmt.pr "valid: %d records (%s)@." n schema;
      summarize lines
  in
  let file_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"FILE"
             ~doc:"Metrics JSONL file written by `inject --metrics'.")
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Validate a metrics JSONL file against its declared schema \
          (injection records, vulnerability maps, event logs, run-store \
          indexes, job queues ...) and summarise it.")
    Term.(const run $ file_arg)

(* ---- vulnmap: per-site vulnerability map with detection latency ---- *)

let vulnmap_cmd =
  let run bench technique knobs samples seed all_sites fault_bits engine
      metrics only_sampled progress policy stats_out =
    let p = program_of ?technique knobs (find_bench bench) in
    let result =
      run_one_shard ?policy ~mode:Runner.Traced ~label:"vulnmap" ~all_sites
        ~engine ~fault_bits ~seed ~samples ~progress (Machine.load p)
    in
    let v = Option.get result.Runner.vulnmap (* Traced mode builds one *) in
    let write =
      write_campaign_file ~bench ~technique ~samples ~seed ~all_sites
        ~fault_bits
    in
    write Store.vulnmap_header ~tag:"vulnmap" metrics (fun () ->
        List.map Json.to_string (F.vulnmap_rows v));
    write Store.stats_header ~tag:"stats" stats_out (fun () ->
        Runner.stats_lines result);
    print_string (Ferrum_report.Vulnmap.render ~only_sampled v)
  in
  let only_sampled_arg =
    Arg.(value & flag
         & info [ "only-sampled" ]
             ~doc:"Omit listing lines for sites no fault was injected into.")
  in
  Cmd.v
    (Cmd.info "vulnmap"
       ~doc:
         "Per-static-instruction vulnerability map: a traced injection \
          campaign aggregated by site, rendered as an annotated assembly \
          listing with outcome distributions, Wilson confidence \
          intervals and detection latencies; --metrics exports it as \
          ferrum.vulnmap.v1 JSONL, --stats as ferrum.stats.v1."
    )
    Term.(
      const run $ bench_arg $ protect_arg $ knobs_term $ samples_arg
      $ seed_arg $ all_sites_arg $ fault_bits_arg $ engine_term
      $ metrics_arg $ only_sampled_arg $ progress_arg $ policy_term
      $ stats_out_arg)

(* ---- lint: static protection verifier ---- *)

let lint_cmd =
  let kind_conv =
    let parse s =
      match Shadow.kind_of_name s with
      | Some k -> Ok k
      | None ->
        Error
          (`Msg
            (Fmt.str "expected one of: %s"
               (String.concat ", "
                  (List.map Shadow.kind_name Shadow.all_kinds))))
    in
    let print ppf k = Fmt.string ppf (Shadow.kind_name k) in
    Arg.conv (parse, print)
  in
  let lint_header ~bench ~technique =
    Metrics.header ~kind:Lint.metrics_kind
      [
        ("benchmark", Json.Str bench);
        ("technique",
         Json.Str
           (match technique with
           | Some t -> Technique.short_name t
           | None -> "raw"));
      ]
  in
  let run bench technique knobs json metrics kind crossval samples seed =
    let e = find_bench bench in
    let m = e.Catalog.build () in
    let result =
      match technique with
      | None -> Pipeline.raw ~optimize:knobs.optimize m
      | Some t ->
        Pipeline.protect ~ferrum_config:knobs.ferrum_config
          ~optimize:knobs.optimize t m
    in
    let report = Pipeline.lint result in
    let report =
      match kind with
      | None -> report
      | Some k ->
        { report with
          Lint.r_findings =
            List.filter
              (fun (f : Shadow.finding) -> f.Shadow.f_kind = k)
              report.Lint.r_findings }
    in
    let rows () = lint_header ~bench ~technique :: Lint.rows result.Pipeline.program report in
    (match metrics with
    | None -> ()
    | Some path ->
      let sink = Metrics.file_sink path in
      List.iter (Metrics.emit sink) (rows ());
      Metrics.close sink;
      Fmt.epr "[lint] wrote %s@." path);
    if json then List.iter (fun j -> print_endline (Json.to_string j)) (rows ())
    else Fmt.pr "%a" Lint.pp_report report;
    let failed = ref (Lint.errors report > 0) in
    if crossval then begin
      let o =
        Ferrum_report.Crossval.run ~seed ~samples result.Pipeline.program
      in
      Fmt.pr "%a" Ferrum_report.Crossval.pp o;
      if not (Ferrum_report.Crossval.passed o) then failed := true
    end;
    if !failed then exit 1
  in
  let json_arg =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:
               "Emit ferrum.lint.v1 JSONL (header, one row per finding, \
                then one uncovered-site row per statically uncovered \
                eligible site) instead of the human report; \
                byte-reproducible.")
  in
  let kind_arg =
    Arg.(value & opt (some kind_conv) None
         & info [ "kind" ] ~docv:"KIND"
             ~doc:"Only report findings of this kind.")
  in
  let crossval_arg =
    Arg.(value & flag
         & info [ "crossval" ]
             ~doc:
               "Replay a seeded vulnerability-map campaign and verify \
                every unchecked-site/output-before-check SDC escape lies \
                inside the statically predicted uncovered set.")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically verify a (protected) benchmark: shadow-consistency \
          findings against the technique's invariants (Figs. 4-7) plus \
          the check-free-path uncovered set.  Exits 1 when any \
          error-severity finding (or crossval violation) is present.")
    Term.(
      const run $ bench_arg $ protect_arg $ knobs_term $ json_arg
      $ metrics_arg $ kind_arg $ crossval_arg $ samples_arg $ seed_arg)

(* ---- explain: propagation trace of one campaign sample ---- *)

(* "SEED:IDX" — the IDX-th sample of the campaign seeded SEED. *)
let fault_spec_conv =
  let parse s =
    match String.index_opt s ':' with
    | Some i -> (
      let seed = String.sub s 0 i in
      let idx = String.sub s (i + 1) (String.length s - i - 1) in
      match (Int64.of_string_opt seed, int_of_string_opt idx) with
      | Some seed, Some idx when idx >= 0 -> Ok (seed, idx)
      | _ -> Error (`Msg "expected SEED:IDX (int64, non-negative int)"))
    | None -> Error (`Msg "expected SEED:IDX, e.g. 2024:17")
  in
  let print ppf (seed, idx) = Fmt.pf ppf "%Ld:%d" seed idx in
  Arg.conv (parse, print)

let explain_cmd =
  let run bench technique knobs (seed, idx) all_sites fault_bits =
    let p = program_of ?technique knobs (find_bench bench) in
    let img = Machine.load p in
    let scope = if all_sites then F.All_sites else F.Original_only in
    let t = F.prepare ~scope img in
    if t.F.eligible_steps = 0 then begin
      Fmt.epr "no eligible injection sites@.";
      exit 1
    end;
    (* The campaign's own traced sample, so `explain SEED:IDX` retraces
       exactly the fault that `inject --seed SEED` classified as sample
       IDX. *)
    let cls, fault, _, summary =
      F.vulnmap_sample ~fault_bits t ~seed ~sample:idx
    in
    Fmt.pr "benchmark %s (%s), seed %Ld, sample %d@." bench
      (match technique with
      | Some t -> Technique.short_name t
      | None -> "raw")
      seed idx;
    Fmt.pr "fault: bit %d of %s at static index %d (dynamic write-back %d)@."
      fault.F.bit fault.F.dest_desc fault.F.static_index fault.F.dyn_index;
    Fmt.pr "classification: %s@." (F.classification_name cls);
    (match F.Propagation.detection_latency summary with
    | Some (steps, cycles) when cls = F.Detected ->
      Fmt.pr "detection latency: %d instructions, %.1f model cycles@." steps
        cycles
    | _ -> ());
    (match cls with
    | F.Sdc ->
      let escape = F.Propagation.explain_escape summary in
      Fmt.pr "escape: %s — %s@."
        (F.Propagation.escape_name escape)
        (F.Propagation.escape_describe escape)
    | _ -> ());
    Fmt.pr "%a" F.Propagation.pp_summary summary
  in
  let fault_arg =
    Arg.(required
         & opt (some fault_spec_conv) None
         & info [ "fault" ] ~docv:"SEED:IDX"
             ~doc:
               "Which fault to explain: sample $(i,IDX) of the campaign \
                seeded $(i,SEED) (same sampling stream as `inject \
                --seed').")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Re-run one campaign sample in lockstep with the golden \
          execution and explain its outcome: first architectural \
          divergence, taint spread, detection latency for detected \
          faults, and the escape mechanism for SDCs.")
    Term.(
      const run $ bench_arg $ protect_arg $ knobs_term $ fault_arg
      $ all_sites_arg $ fault_bits_arg)

(* ---- cc: the C-lite frontend ---- *)

let cc_cmd =
  let run file technique knobs emit samples seed fault_bits metrics =
    let m =
      try Ferrum_clite.Clite.compile_file file
      with Ferrum_clite.Clite.Error msg ->
        Fmt.epr "%s: %s@." file msg;
        exit 1
    in
    let program () =
      match technique with
      | None -> (Pipeline.raw ~optimize:knobs.optimize m).program
      | Some t ->
        (Pipeline.protect ~ferrum_config:knobs.ferrum_config
           ~optimize:knobs.optimize t m)
          .program
    in
    match emit with
    | "ir" -> print_string (Ferrum_ir.Ir.to_string m)
    | "asm" -> print_string (Ferrum_asm.Printer.program_to_string (program ()))
    | "run" ->
      let img = Machine.load (program ()) in
      let outcome, st = Predecode.run_fresh img in
      Fmt.pr "outcome: %a@." Machine.pp_outcome outcome;
      Fmt.pr "dynamic instructions: %d@." st.Machine.steps;
      Fmt.pr "model cycles: %.0f@." st.Machine.cycles.Machine.fv;
      (match outcome with Machine.Exit _ -> () | _ -> exit 1)
    | "inject" ->
      let res =
        run_one_shard ~mode:Runner.Inject ~label:"inject" ~all_sites:false
          ~engine:F.default_engine ~fault_bits ~seed ~samples ~progress:false
          (Machine.load (program ()))
      in
      write_campaign_file ~bench:file ~technique ~samples ~seed
        ~all_sites:false ~fault_bits Store.injection_header ~tag:"inject"
        metrics (fun () -> res.Runner.record_lines);
      let counts = res.Runner.counts in
      Fmt.pr "%a@." F.pp_counts counts;
      Fmt.pr "SDC probability: %.4f +/- %.4f (95%%)@."
        (F.sdc_probability counts)
        (Stats.half_width (Stats.wilson (F.sdc_tally counts)))
    | other ->
      Fmt.epr "unknown --emit %S (expected ir, asm, run or inject)@." other;
      exit 2
  in
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
           ~doc:"C-lite source file (see examples/programs).")
  in
  let emit_arg =
    Arg.(value & opt string "run"
         & info [ "emit" ] ~doc:"What to do: ir, asm, run or inject.")
  in
  Cmd.v
    (Cmd.info "cc"
       ~doc:
         "Compile a C-lite source file and print its IR or assembly, \
          simulate it, or run a fault-injection campaign on it.")
    Term.(
      const run $ file_arg $ protect_arg $ knobs_term $ emit_arg
      $ samples_arg $ seed_arg $ fault_bits_arg $ metrics_arg)

(* ---- campaign: sharded fork-pool campaign -> run directory ---- *)

let campaign_cmd =
  let run bench technique knobs samples seed all_sites fault_bits engine
      shards workers no_trace out events_path html_path trace_path resume
      progress policy =
    (* Configuration comes from the command line (BENCH given) or from a
       previous run's manifest (--resume DIR); the manifest's program
       digest gates resume against workload or knob drift. *)
    let bench, technique, samples, seed, all_sites, fault_bits, engine,
        shards, traced, out, prior, policy =
      match resume with
      | Some dir -> (
        match Manifest.load ~dir with
        | Error e ->
          Fmt.epr "--resume %s: %s@." dir e;
          exit 1
        | Ok m ->
          let technique =
            if m.Manifest.technique = "raw" then None
            else
              match Technique.of_short_name m.Manifest.technique with
              | Some t -> Some t
              | None ->
                Fmt.epr "--resume %s: unknown technique %S in manifest@."
                  dir m.Manifest.technique;
                exit 1
          in
          let engine =
            match F.engine_of_name m.Manifest.engine with
            | Some e -> e
            | None ->
              Fmt.epr "--resume %s: unknown engine %S in manifest@." dir
                m.Manifest.engine;
              exit 1
          in
          ( m.Manifest.benchmark, technique, m.Manifest.samples,
            m.Manifest.seed, m.Manifest.scope = "all-sites",
            m.Manifest.fault_bits, engine, m.Manifest.shards,
            m.Manifest.traced, dir, Some m,
            if m.Manifest.policy = "adaptive" then
              Some
                { Runner.rounds = m.Manifest.rounds;
                  target_ci = m.Manifest.target_ci }
            else None ))
      | None -> (
        match bench with
        | None ->
          Fmt.epr "a BENCH argument or --resume DIR is required@.";
          exit 1
        | Some bench ->
          let out =
            match out with
            | Some d -> d
            | None ->
              Filename.concat "_campaign"
                (bench ^ "." ^ technique_name technique)
          in
          ( bench, technique, samples, seed, all_sites, fault_bits,
            engine, shards, not no_trace, out, None, policy ))
    in
    let p = program_of ?technique knobs (find_bench bench) in
    (match prior with
    | Some m when m.Manifest.program_digest <> Manifest.program_digest p ->
      Fmt.epr
        "--resume %s: program digest mismatch — the workload or the \
         transform knobs changed since the recorded run@."
        out;
      exit 1
    | _ -> ());
    let img = Machine.load p in
    let scope = if all_sites then F.All_sites else F.Original_only in
    let target =
      try F.prepare ~scope ~engine img
      with Invalid_argument msg ->
        Fmt.epr "%s@." msg;
        exit 1
    in
    let manifest =
      let kind, rounds, target_ci =
        match policy with
        | Some p -> ("adaptive", p.Runner.rounds, p.Runner.target_ci)
        | None -> ("flat", 1, 0.0)
      in
      Manifest.make ~policy:kind ~rounds ~target_ci ~benchmark:bench
        ~technique:(technique_name technique) ~samples ~seed ~shards
        ~fault_bits ~all_sites ~traced ~program:p target
    in
    (* Part files are only trusted when the manifest they were written
       under matches this run's configuration — a fresh run over a
       reused --out directory (the default one is stable per
       BENCH.TECH) must not silently replay parts left by a run with a
       different seed, scope, fault width or workload.  The --resume
       path is already gated by the digest check above. *)
    (match prior with
    | Some _ -> ()
    | None -> (
      match Manifest.load ~dir:out with
      | Ok recorded when Manifest.compatible recorded manifest -> ()
      | Ok _ | Error _ -> Fsutil.rm_rf (Store.parts_dir out)));
    (* Saved before the run so an interruption leaves a resumable
       directory: parts/ plus the manifest that vouches for it. *)
    Manifest.save ~dir:out manifest;
    let on_event =
      if progress then Some (progress_renderer "campaign") else None
    in
    let mode = if traced then Runner.Traced else Runner.Inject in
    let result =
      try
        Runner.run ?workers ?on_event ?policy ~fault_bits
          ~part_dir:(Store.parts_dir out) ~mode ~shards ~seed ~samples target
      with Failure msg | Invalid_argument msg ->
        Fmt.epr "%s@." msg;
        exit 1
    in
    Store.write_run ~dir:out ~manifest ~result ();
    (match events_path with
    | None -> ()
    | Some path ->
      let header =
        Store.events_header ~benchmark:bench
          ~technique:(technique_name technique) ~samples ~seed ~all_sites
          ~fault_bits ~shards
      in
      let lines =
        List.map
          (fun e -> Json.to_string (Events.to_json e))
          result.Runner.events
      in
      Fsutil.write_file path (Store.jsonl header lines);
      Fmt.epr "[campaign] wrote %s@." path);
    (match trace_path with
    | None -> ()
    | Some path ->
      (* The run directory already holds the canonical copy; --trace
         re-emits it (and its wall sidecar next to it) for pipelines
         that want the stitched trace without the directory. *)
      Fsutil.write_file path
        (Fsutil.read_file (Filename.concat out Store.trace_file));
      Fsutil.write_file (path ^ ".wall")
        (Fsutil.read_file (Filename.concat out Store.trace_wall_file));
      Fmt.epr "[campaign] wrote %s (+ %s.wall)@." path path);
    (match html_path with
    | None -> ()
    | Some path -> (
      match Html.render_dir out with
      | Ok html ->
        Fsutil.write_file path html;
        Fmt.epr "[campaign] wrote %s@." path
      | Error e ->
        Fmt.epr "--html: %s@." e;
        exit 1));
    Fmt.pr "%a@." F.pp_counts result.Runner.counts;
    Fmt.pr "%a@." pp_campaign_interval result.Runner.counts;
    print_early_stop ?policy ~samples result.Runner.counts;
    Fmt.pr "logical clock: %d steps over %d shards@." result.Runner.clock
      shards;
    if result.Runner.retried > 0 then
      Fmt.pr "worker retries: %d@." result.Runner.retried;
    Fmt.pr "run directory: %s@." out
  in
  let bench_opt_arg =
    let doc = "Benchmark name (omit only with $(b,--resume))." in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"BENCH" ~doc)
  in
  let shards_arg =
    let doc =
      "Split the campaign into $(docv) shards; merged output is \
       byte-identical to the sequential campaign for any value."
    in
    Arg.(value & opt int 4 & info [ "shards" ] ~docv:"N" ~doc)
  in
  let workers_arg =
    let doc =
      "Concurrent forked workers (default: min shards 4)."
    in
    Arg.(value & opt (some int) None & info [ "workers" ] ~docv:"N" ~doc)
  in
  let no_trace_arg =
    let doc =
      "Skip lockstep tracing: outcome counts and injection records \
       only, no vulnerability map (faster)."
    in
    Arg.(value & flag & info [ "no-trace" ] ~doc)
  in
  let out_arg =
    let doc =
      "Run directory (default: _campaign/BENCH.TECH).  Receives \
       manifest.json, injection.jsonl, events.jsonl, stats.jsonl, \
       trace.jsonl, trace-wall.jsonl, vulnmap.jsonl and parts/."
    in
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"DIR" ~doc)
  in
  let events_arg =
    let doc = "Also write the ferrum.events.v1 log to $(docv)." in
    Arg.(value & opt (some string) None
         & info [ "events" ] ~docv:"PATH" ~doc)
  in
  let html_arg =
    let doc =
      "Render the run directory as a self-contained HTML dashboard at \
       $(docv)."
    in
    Arg.(value & opt (some string) None & info [ "html" ] ~docv:"PATH" ~doc)
  in
  let trace_arg =
    let doc =
      "Also write the stitched ferrum.trace.v1 span document to $(docv) \
       (and its wall sidecar to $(docv).wall).  Span rows carry logical \
       clocks only and are byte-identical across same-seed reruns."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"PATH" ~doc)
  in
  let resume_arg =
    let doc =
      "Resume the run recorded in $(docv): configuration comes from its \
       manifest, finished shards are loaded from parts/ instead of \
       re-running."
    in
    Arg.(value & opt (some string) None
         & info [ "resume" ] ~docv:"DIR" ~doc)
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:
         "Sharded fault-injection campaign on a fork worker pool: \
          byte-identical to the sequential campaign for any shard \
          count, with a typed event log, a replayable manifest, \
          crash-safe per-shard resume state and an optional HTML \
          dashboard.  --adaptive allocates samples round by round \
          toward the sites with the widest confidence intervals.")
    Term.(
      const run $ bench_opt_arg $ protect_arg $ knobs_term $ samples_arg
      $ seed_arg $ all_sites_arg $ fault_bits_arg $ engine_term
      $ shards_arg $ workers_arg $ no_trace_arg $ out_arg $ events_arg
      $ html_arg $ trace_arg $ resume_arg $ progress_arg $ policy_term)

(* ---- trace-export ---- *)

(* Export a stored campaign trace for external viewers.  Accepts a run
   directory (uses its trace.jsonl + trace-wall.jsonl) or a trace file
   written by `campaign --trace` (sidecar expected at PATH.wall).  The
   document is schema-validated and stitch-checked before export, so a
   file that exports at all is a coherent single-root trace. *)
let trace_export_cmd =
  let run src perfetto folded =
    let trace_path, wall_path =
      if Sys.file_exists src && Sys.is_directory src then
        ( Filename.concat src Store.trace_file,
          Filename.concat src Store.trace_wall_file )
      else (src, src ^ ".wall")
    in
    let lines =
      try Metrics.read_lines trace_path
      with Sys_error msg ->
        Fmt.epr "%s@." msg;
        exit 1
    in
    (match
       Metrics.validate_lines ~kind:Trace.kind ~record_fields:Trace.fields
         lines
     with
    | Ok _ -> ()
    | Error e ->
      Fmt.epr "%s: invalid trace document: %s@." trace_path e;
      exit 1);
    let records = match lines with _hdr :: r -> r | [] -> [] in
    let root =
      match Trace.validate_stitched records with
      | Ok root -> root
      | Error e ->
        Fmt.epr "%s: trace does not stitch: %s@." trace_path e;
        exit 1
    in
    let spans =
      match Trace.rows_of_lines records with
      | Ok rows -> Trace.spans_of_rows rows
      | Error _ -> assert false (* validated above *)
    in
    let walls =
      if not (Sys.file_exists wall_path) then []
      else
        match Metrics.read_lines wall_path with
        | _hdr :: records -> (
          match Trace.rows_of_lines records with
          | Ok rows -> Trace.walls_of_rows rows
          | Error e ->
            Fmt.epr "%s: invalid wall sidecar: %s@." wall_path e;
            exit 1)
        | [] -> []
    in
    Fmt.pr "%d spans, root %s, wall rows for %d@." (List.length spans) root
      (List.length walls);
    (match perfetto with
    | None -> ()
    | Some path ->
      Fsutil.write_file path
        (Json.to_string (Trace.perfetto ~spans ~walls) ^ "\n");
      Fmt.pr "wrote %s (chrome trace-event JSON)@." path);
    match folded with
    | None -> ()
    | Some path ->
      Fsutil.write_file path
        (String.concat "" (List.map (fun l -> l ^ "\n") (Trace.folded ~spans ~walls)));
      Fmt.pr "wrote %s (folded flamegraph stacks)@." path
  in
  let src_arg =
    let doc =
      "Campaign run directory (its trace.jsonl is used), or a trace \
       file from `campaign --trace' (wall sidecar expected at \
       $(docv).wall)."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"RUN" ~doc)
  in
  let perfetto_arg =
    let doc =
      "Write Chrome trace-event JSON to $(docv) (loadable in Perfetto \
       and chrome://tracing).  Wall-clock timestamps when the sidecar \
       covers every span; logical steps as microseconds otherwise."
    in
    Arg.(value & opt (some string) None
         & info [ "perfetto" ] ~docv:"PATH" ~doc)
  in
  let folded_arg =
    let doc =
      "Write folded flamegraph stacks (one `a;b;c weight' line per \
       stack, flamegraph.pl-compatible) to $(docv)."
    in
    Arg.(value & opt (some string) None & info [ "folded" ] ~docv:"PATH" ~doc)
  in
  Cmd.v
    (Cmd.info "trace-export"
       ~doc:
         "Validate a stored campaign trace (ferrum.trace.v1) and export \
          it as Chrome trace-event JSON (--perfetto) and/or folded \
          flamegraph stacks (--folded).")
    Term.(const run $ src_arg $ perfetto_arg $ folded_arg)

(* ---- report ---- *)

let report_cmd =
  let run samples seed =
    let options =
      { Ferrum_report.Experiments.default_options with samples; seed }
    in
    let results = Ferrum_report.Experiments.run ~options () in
    print_endline (Ferrum_report.Render.table1 ());
    print_newline ();
    print_endline (Ferrum_report.Render.table2 results);
    print_newline ();
    print_endline (Ferrum_report.Render.fig10 results);
    print_endline (Ferrum_report.Render.fig11 results);
    print_endline (Ferrum_report.Render.exec_time results);
    print_newline ();
    print_endline (Ferrum_report.Render.summary results)
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Regenerate the paper's evaluation tables and figures.")
    Term.(const run $ samples_arg $ seed_arg)

(* ---- serve / submit / watch / fetch: the campaign daemon ---- *)

let host_arg =
  let doc = "Daemon host." in
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc)

let port_arg =
  let doc = "Daemon TCP port." in
  Arg.(value & opt int 8414 & info [ "port" ] ~docv:"PORT" ~doc)

let serve_cmd =
  let run root host port =
    try Serve.serve { Serve.root; host; port }
    with Unix.Unix_error (e, fn, _) ->
      Fmt.epr "ferrum serve: %s: %s@." fn (Unix.error_message e);
      exit 1
  in
  let root_arg =
    let doc =
      "Daemon state directory: receives queue/ (ferrum.jobs.v1 + per-job \
       scratch), store/ (content-addressed run store), and the port/pid \
       files."
    in
    Arg.(value & opt string "_serve" & info [ "root" ] ~docv:"DIR" ~doc)
  in
  let port_arg =
    let doc =
      "Daemon TCP port; 0 auto-assigns (the bound port is written to \
       ROOT/port either way)."
    in
    Arg.(value & opt int 8414 & info [ "port" ] ~docv:"PORT" ~doc)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the campaign daemon: POST /jobs queues campaigns, \
          GET /jobs/:id/events streams live ferrum.events.v1 over SSE, \
          GET /runs/... serves the content-addressed run store, and \
          GET /history compares runs.  Identical jobs are served from \
          the store without re-running.")
    Term.(const run $ root_arg $ host_arg $ port_arg)

let submit_cmd =
  let run bench technique samples seed all_sites fault_bits engine shards
      no_trace host port =
    let spec =
      {
        Jobspec.benchmark = bench;
        technique = technique_name technique;
        samples;
        seed;
        shards;
        fault_bits;
        scope = (if all_sites then "all-sites" else "original");
        traced = not no_trace;
        engine = F.engine_name engine;
      }
    in
    let body = Jobspec.to_string spec in
    (* Root the job's trace on the client side: the daemon stitches its
       job/queue-wait/campaign spans under this id, so the stored trace
       names the submission, not just the execution. *)
    let trace = Trace.derive_id ~seed (Fmt.str "submit:%s" body) in
    Fmt.epr "[submit] trace %s@." trace;
    match
      Http.request ~host ~port ~meth:"POST" ~path:"/jobs"
        ~headers:
          [
            ("Content-Type", "application/json");
            ("traceparent", Trace.to_traceparent ~trace ~span:"0");
          ]
        ~body ()
    with
    | Error e ->
      Fmt.epr "ferrum submit: %s@." e;
      exit 1
    | Ok resp ->
      print_string resp.Http.r_body;
      if resp.Http.status <> 200 && resp.Http.status <> 202 then exit 1
  in
  let shards_arg =
    let doc = "Shard count for the submitted campaign." in
    Arg.(value & opt int 4 & info [ "shards" ] ~docv:"N" ~doc)
  in
  let no_trace_arg =
    let doc = "Submit without lockstep tracing (no vulnerability map)." in
    Arg.(value & flag & info [ "no-trace" ] ~doc)
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:
         "Submit a campaign job to a running `ferrum serve' daemon.  \
          Prints the daemon's ferrum.jobs.v1 response; an \
          already-stored identical job comes back `done' immediately \
          (cache hit).")
    Term.(
      const run $ bench_arg $ protect_arg $ samples_arg $ seed_arg
      $ all_sites_arg $ fault_bits_arg $ engine_term $ shards_arg
      $ no_trace_arg $ host_arg $ port_arg)

let watch_cmd =
  let run job host port from =
    let d = Sse.decoder () in
    let on_chunk chunk =
      List.iter
        (fun (e : Sse.event) ->
          print_endline e.Sse.data;
          flush stdout)
        (Sse.feed d chunk)
    in
    let headers =
      match from with
      | Some n -> [ ("Last-Event-ID", string_of_int n) ]
      | None -> []
    in
    match
      Http.stream ~host ~port
        ~path:(Fmt.str "/jobs/%d/events" job)
        ~headers ~on_chunk ()
    with
    | Error e ->
      Fmt.epr "ferrum watch: %s@." e;
      exit 1
    | Ok 200 -> ()
    | Ok status ->
      Fmt.epr "ferrum watch: server returned %d@." status;
      exit 1
  in
  let job_arg =
    let doc = "Job id (from `ferrum submit')." in
    Arg.(required & pos 0 (some int) None & info [] ~docv:"JOB" ~doc)
  in
  let from_arg =
    let doc =
      "Resume from event $(docv) (sent as Last-Event-ID; the stream \
       restarts at the next event)."
    in
    Arg.(value & opt (some int) None & info [ "from" ] ~docv:"SEQ" ~doc)
  in
  Cmd.v
    (Cmd.info "watch"
       ~doc:
         "Stream a job's live ferrum.events.v1 records from a running \
          daemon (SSE client).  One JSON record per line; reconnecting \
          with --from resumes without gaps.")
    Term.(const run $ job_arg $ host_arg $ port_arg $ from_arg)

let fetch_cmd =
  let run path out host port =
    match Http.request ~host ~port ~meth:"GET" ~path () with
    | Error e ->
      Fmt.epr "ferrum fetch: %s@." e;
      exit 1
    | Ok resp ->
      (match out with
      | Some file -> Fsutil.write_file file resp.Http.r_body
      | None -> print_string resp.Http.r_body);
      if resp.Http.status <> 200 then begin
        Fmt.epr "ferrum fetch: server returned %d@." resp.Http.status;
        exit 1
      end
  in
  let path_arg =
    let doc =
      "Server path, e.g. /runs, /runs/DIGEST/records, /jobs/1, /metricz, \
       /history."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"PATH" ~doc)
  in
  let out_arg =
    let doc = "Write the response body to $(docv) instead of stdout." in
    Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc)
  in
  Cmd.v
    (Cmd.info "fetch"
       ~doc:
         "GET a path from a running daemon and print (or save) the body \
          — stored artifacts, queue state, the history page — without \
          needing curl.")
    Term.(const run $ path_arg $ out_arg $ host_arg $ port_arg)

let () =
  let doc =
    "FERRUM: assembly-level error detection by duplicated instructions \
     with SIMD-batched checking (reproduction of He, Xu & Li, DSN 2024)."
  in
  let info = Cmd.info "ferrum" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; ir_cmd; compile_cmd; run_cmd; inject_cmd; cc_cmd;
            check_cmd; stats_cmd; trace_cmd; profile_cmd; metrics_cmd;
            vulnmap_cmd; lint_cmd; explain_cmd; campaign_cmd;
            trace_export_cmd; serve_cmd; submit_cmd; watch_cmd; fetch_cmd;
            report_cmd ]))
