(** Experiment drivers: run the benchmark suite through the four
    configurations and collect everything the paper's evaluation section
    reports — SDC coverage under fault injection (Fig. 10), cycle-model
    runtime overhead (Fig. 11) and transform time (§IV-B3).  All
    campaigns are seeded and reproducible. *)

module Machine = Ferrum_machine.Machine
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
  overhead : float;  (** cycle-model runtime overhead (Fig. 11) *)
  dyn_overhead : float;  (** raw dynamic-instruction overhead *)
  counts : F.counts option;  (** [None] when the campaign was skipped *)
  coverage : float option;  (** SDC coverage (Fig. 10) *)
  transform_seconds : float;  (** median-of-repetitions transform time *)
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
  samples : int;  (** fault injections per configuration; 0 = skip *)
  seed : int64;
  scope : F.scope;
  cost_model : Cost.model;
  ferrum_config : Ferrum_eddi.Ferrum_pass.config;
  benchmarks : string list option;  (** [None] = the whole suite *)
  shards : int;
      (** fork worker pool shards per campaign; outcome counts are
          identical for any value, so this is purely a wall-clock knob *)
}

(** 400 samples, seed 2024, original-site scope, default cost model and
    FERRUM config, all benchmarks, sequential (1 shard). *)
val default_options : options

(** Outcome counts of a flat [samples]-injection campaign over [img]
    ({!Ferrum_campaign.Runner.run} on [shards] (default 1) forked
    shards, on the target {!F.prepare} gives for [scope] and [engine]);
    the same counts for any [shards]. *)
val campaign_counts :
  ?shards:int -> ?scope:F.scope -> ?fault_bits:int ->
  ?engine:F.engine -> seed:int64 -> samples:int -> Machine.image ->
  F.counts

(** {!campaign_counts} on a target already prepared. *)
val target_counts :
  ?shards:int -> ?fault_bits:int -> seed:int64 ->
  samples:int -> F.target -> F.counts

(** The golden run a prepared target walked, as
    {!Ferrum_machine.Predecode.golden} reports it. *)
val golden_of_target : F.target -> Ferrum_machine.Predecode.golden

(** [golden_for ~samples img]: [img]'s golden run and, when
    [samples > 0], the target prepared for its campaign, whose walk the
    golden figures are read from (one walk, not two); preparing raises
    {!F.Golden_failure} if that run does not exit.  Without a campaign
    the figures are {!Ferrum_machine.Predecode.golden}'s and the target
    is [None]. *)
val golden_for :
  ?scope:F.scope -> samples:int -> Machine.image ->
  Ferrum_machine.Predecode.golden * F.target option

val run : ?options:options -> unit -> bench_result list

(** The record for one technique within a benchmark's results. *)
val find_tech : bench_result -> Technique.t -> tech_result

(** Arithmetic mean over benchmarks of a per-benchmark metric. *)
val mean_over : bench_result list -> (bench_result -> float) -> float
