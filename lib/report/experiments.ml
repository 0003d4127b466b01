(* Experiment drivers: run the benchmark suite through the four
   configurations and collect everything the paper's evaluation section
   reports — SDC coverage under fault injection (Fig. 10), runtime
   overhead under the cycle model (Fig. 11), and transform time
   (§IV-B3).  All campaigns are seeded and reproducible. *)

module Machine = Ferrum_machine.Machine
module Predecode = Ferrum_machine.Predecode
module Cost = Ferrum_machine.Cost
module F = Ferrum_faultsim.Faultsim
module Technique = Ferrum_eddi.Technique
module Pipeline = Ferrum_eddi.Pipeline
module Catalog = Ferrum_workloads.Catalog

type tech_result = {
  technique : Technique.t;
  static_instructions : int;
  dyn_instructions : int;
  cycles : float;
  overhead : float; (* cycle-model runtime overhead, paper Fig. 11 *)
  dyn_overhead : float; (* raw dynamic-instruction overhead *)
  counts : F.counts option; (* None when the campaign was skipped *)
  coverage : float option; (* SDC coverage, paper Fig. 10 *)
  transform_seconds : float;
}

type bench_result = {
  name : string;
  suite : string;
  domain : string;
  static_raw : int;
  dyn_raw : int;
  cycles_raw : float;
  raw_counts : F.counts option;
  techniques : tech_result list;
}

type options = {
  samples : int; (* fault injections per configuration; 0 = skip *)
  seed : int64;
  scope : F.scope;
  cost_model : Cost.model;
  ferrum_config : Ferrum_eddi.Ferrum_pass.config;
  benchmarks : string list option; (* None = all *)
  shards : int; (* fork-pool shards per campaign (identical counts) *)
}

let default_options =
  {
    samples = 400;
    seed = 2024L;
    scope = F.Original_only;
    cost_model = Cost.default;
    ferrum_config = Ferrum_eddi.Ferrum_pass.default_config;
    benchmarks = None;
    shards = 1;
  }

(* Outcome counts of a flat campaign on the fork pool; the shard/merge
   discipline makes them identical for any shard count, so [shards] is
   purely a wall-clock knob. *)
let target_counts ?(shards = 1) ?fault_bits ~seed ~samples target =
  (Ferrum_campaign.Runner.run ?fault_bits
     ~mode:Ferrum_campaign.Runner.Inject ~shards ~seed ~samples target)
    .Ferrum_campaign.Runner.counts

let campaign_counts ?shards ?scope ?fault_bits ?engine ~seed ~samples img =
  target_counts ?shards ?fault_bits ~seed ~samples
    (F.prepare ?scope ?engine img)

(* The golden run a prepared target walked, as {!Predecode.golden}
   reports it. *)
let golden_of_target (t : F.target) =
  {
    Predecode.outcome = Machine.Exit t.F.golden_output;
    dyn_instructions = t.F.golden_steps;
    cycles = t.F.golden_cycles;
  }

(* [img]'s golden run and, when a campaign follows ([samples > 0]), the
   target it runs on: preparing the target walks the golden run, and the
   figures read that walk rather than making a second. *)
let golden_for ?scope ~samples img =
  if samples <= 0 then (Predecode.golden img, None)
  else
    let t = F.prepare ?scope img in
    (golden_of_target t, Some t)

let option_counts opts target =
  Option.map
    (target_counts ~shards:opts.shards ~seed:opts.seed ~samples:opts.samples)
    target

let selected_entries opts =
  match opts.benchmarks with
  | None -> Catalog.all
  | Some names ->
    List.filter_map
      (fun n ->
        match Catalog.find n with
        | Some e -> Some e
        | None -> invalid_arg ("unknown benchmark " ^ n))
      names

(* Median-of-repetitions wall-clock of the protection transform, in
   seconds.  The transforms are fast on these kernel sizes, so we repeat
   them to get a stable figure (paper §IV-B3 reports a single run of a
   much larger toolchain). *)
let transform_time technique ?ferrum_config m =
  let reps = 21 in
  let times =
    List.init reps (fun _ ->
        (Pipeline.protect ?ferrum_config technique m).transform_seconds)
  in
  let sorted = List.sort compare times in
  List.nth sorted (reps / 2)

let run_entry opts (e : Catalog.entry) : bench_result =
  let m = e.build () in
  let raw = Pipeline.raw m in
  let raw_img = Machine.load ~cost_model:opts.cost_model raw.program in
  let raw_golden, raw_target =
    golden_for ~scope:opts.scope ~samples:opts.samples raw_img
  in
  (match raw_golden.outcome with
  | Machine.Exit _ -> ()
  | o ->
    Fmt.failwith "benchmark %s: raw golden run failed: %a" e.name
      Machine.pp_outcome o);
  let raw_counts = option_counts opts raw_target in
  let techniques =
    List.map
      (fun t ->
        let r =
          Pipeline.protect ~ferrum_config:opts.ferrum_config t m
        in
        let img = Machine.load ~cost_model:opts.cost_model r.program in
        let golden, target =
          golden_for ~scope:opts.scope ~samples:opts.samples img
        in
        (match golden.outcome with
        | Machine.Exit out
          when Machine.equal_outcome (Machine.Exit out) raw_golden.outcome ->
          ()
        | o ->
          Fmt.failwith "benchmark %s under %s: protected output wrong: %a"
            e.name (Technique.name t) Machine.pp_outcome o);
        let counts = option_counts opts target in
        let coverage =
          match (raw_counts, counts) with
          | Some raw, Some prot ->
            Some (F.sdc_coverage ~raw ~protected_:prot)
          | _ -> None
        in
        {
          technique = t;
          static_instructions = Ferrum_asm.Prog.num_instructions r.program;
          dyn_instructions = golden.Predecode.dyn_instructions;
          cycles = golden.Predecode.cycles;
          overhead =
            F.overhead ~raw_cycles:raw_golden.Predecode.cycles
              ~prot_cycles:golden.Predecode.cycles;
          dyn_overhead =
            F.overhead
              ~raw_cycles:(float_of_int raw_golden.Predecode.dyn_instructions)
              ~prot_cycles:(float_of_int golden.Predecode.dyn_instructions);
          counts;
          coverage;
          transform_seconds =
            transform_time t ~ferrum_config:opts.ferrum_config m;
        })
      Technique.all
  in
  {
    name = e.name;
    suite = e.suite;
    domain = e.domain;
    static_raw = Ferrum_asm.Prog.num_instructions raw.program;
    dyn_raw = raw_golden.Predecode.dyn_instructions;
    cycles_raw = raw_golden.Predecode.cycles;
    raw_counts;
    techniques;
  }

let run ?(options = default_options) () : bench_result list =
  List.map (run_entry options) (selected_entries options)

let find_tech (b : bench_result) t =
  List.find (fun r -> r.technique = t) b.techniques

(* Arithmetic mean over benchmarks of a per-technique metric. *)
let mean_over results f =
  match results with
  | [] -> 0.0
  | _ ->
    List.fold_left (fun acc b -> acc +. f b) 0.0 results
    /. float_of_int (List.length results)
