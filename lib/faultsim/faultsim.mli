(** Assembly-level fault injection (paper §II-B, §IV-A2).

    Fault model: a single bit flip (or, for the E11 extension, several
    distinct bits) in the destination of one dynamically executed
    instruction — a general-purpose register, a 64-bit SIMD lane, or one
    of the RFLAGS bits the instruction defines — applied immediately
    after write-back.  Memory and caches are assumed ECC-protected and
    are never targets.  One fault per run; campaigns sample dynamic
    sites uniformly, as the paper does with 1000 runs per benchmark. *)

module Machine = Ferrum_machine.Machine

(** Which instructions are sampling-eligible: by default only
    [Original]-provenance ones (protection of the program itself);
    [All_sites] also targets duplicates, checkers and instrumentation
    (DESIGN.md experiment E8). *)
type scope = Original_only | All_sites

(** How injected runs execute.  All three engines produce bit-identical
    classifications, records and JSONL streams; they differ only in
    speed.  [Scratch]: a fresh state per sample, full observed prefix
    (the historical reference path).  [Pooled]: one reusable state per
    target/worker, unobserved prefix.  [Checkpointed k]: additionally
    restore the golden-run checkpoint (captured every [k] dynamic
    instructions) nearest below the flip point, paying only the
    suffix, and end an untraced suffix at the first checkpoint whose
    state it matches. *)
type engine = Scratch | Pooled | Checkpointed of int

(** [Checkpointed 4096]. *)
val default_engine : engine

(** ["scratch"], ["pooled"], ["ckpt-<k>"] — the form recorded in
    campaign manifests. *)
val engine_name : engine -> string

(** Inverse of {!engine_name}; [None] on unknown names. *)
val engine_of_name : string -> engine option

(** Outcome of an injected run, classified against the golden run. *)
type classification =
  | Benign  (** normal exit, output identical *)
  | Sdc  (** normal exit, output differs: silent data corruption *)
  | Detected  (** a checker fired *)
  | Crash  (** trap: wild access, divide error, wild control *)
  | Timeout  (** fuel exhausted (e.g. corrupted loop bound) *)

val classification_name : classification -> string

(** Inverse of {!classification_name}; [None] on unknown names. *)
val classification_of_name : string -> classification option

type counts = {
  samples : int;
  benign : int;
  sdc : int;
  detected : int;
  crash : int;
  timeout : int;
}

val zero_counts : counts
val add_count : counts -> classification -> counts

(** Fraction of samples that were SDC. *)
val sdc_probability : counts -> float

(** The SDC outcome as an exact binomial tally (n = samples, k = sdc),
    for the {!Ferrum_telemetry.Stats} interval estimators. *)
val sdc_tally : counts -> Ferrum_telemetry.Stats.tally

(** 95% confidence half-interval on the SDC proportion.

    @deprecated Alias for the Wilson half-width,
    [Stats.half_width (Stats.wilson (sdc_tally c))].  Historically a
    normal approximation, which degenerated to zero width at p = 0,
    p = 1 and n = 0; the Wilson interval stays honest there (n = 0
    yields 0.5 — total ignorance).  Prefer {!Ferrum_telemetry.Stats}
    directly, which also exposes both interval endpoints. *)
val confidence95 : counts -> float

val pp_counts : Format.formatter -> counts -> unit

(** Per static instruction: is it a sampling-eligible site? *)
val eligibility : Machine.image -> scope -> bool array

(** Cumulative per-process engine-phase tallies: golden walks
    ({!prepare}'s profiling run, which also captures checkpoints) and
    the machine steps spent restoring checkpoints, replaying unobserved
    prefixes and running post-flip suffixes.  Deterministic for a given seed and sample set, so trace
    spans carry them as counters without breaking
    byte-reproducibility. *)
type phases = {
  mutable ph_walks : int;
      (** golden walks: 1 in the process that ran {!prepare}, 0 in a
          campaign worker (it resets its phases and inherits the cache) *)
  mutable ph_walk_steps : int;
  mutable ph_restores : int;  (** checkpoint/initial-state restores *)
  mutable ph_prefix_steps : int;  (** unobserved replay up to the flip *)
  mutable ph_suffix_steps : int;  (** flip + post-flip execution *)
  mutable ph_decodes : int;  (** predecode lowerings of this target *)
  mutable ph_fused_steps : int;
      (** suffix steps retired as fused superinstruction pairs; replayed
          identically by the legacy dispatch loop so trace counters stay
          byte-identical whichever dispatcher ran *)
  mutable ph_converged : int;
      (** suffixes ended early because their state matched a golden
          checkpoint (checkpointed engine only) *)
  mutable ph_skipped_steps : int;
      (** golden steps those converged suffixes did not execute; not
          counted in [ph_suffix_steps] *)
}

(** A profiled program ready for injection.  [cache] holds the golden
    checkpoints {!prepare} captured during its one golden walk, so
    forked campaign workers inherit them and never walk again.  The
    trailing mutable fields lazily cache the pooled run states and
    per-process tables. *)
type target = {
  img : Machine.image;
  eligible : bool array;
  golden_output : int64 list;
  golden_steps : int;
  golden_cycles : float;
  golden_prov_cycles : float array;
      (** golden cycles per provenance, in
          {!Ferrum_telemetry.Profile.provenances} order: bit-for-bit the
          [by_provenance] sums of {!Ferrum_telemetry.Profile.run} *)
  eligible_steps : int;  (** dynamic count of eligible write-backs *)
  dyn_static : int array;
      (** static site of each eligible dynamic write-back, in dynamic
          order (length [eligible_steps]) *)
  fuel : int;  (** injected-run budget: 3x golden + slack *)
  engine : engine;
  cache : Ferrum_machine.Snapshot.cache;
      (** golden checkpoints (none unless the engine is checkpointed) *)
  mutable slot_ : Ferrum_machine.Snapshot.slot option;
  mutable golden_slot_ : Ferrum_machine.Snapshot.slot option;
  mutable occ_ : int array array option;
  mutable pre_ : Ferrum_machine.Predecode.t option;
  phases : phases;
}

(** This process's engine-phase tallies for [target]. *)
val phases : target -> phases

(** The target's pre-decoded program (lowered lazily, once per process).
    The eligible-site mask is the fusion [avoid] set, so injection
    sites never sit in the second half of a superinstruction. *)
val predecoded : target -> Ferrum_machine.Predecode.t

(** Zero the tallies (each campaign worker resets at startup so its
    shard's counters cover exactly its own work). *)
val reset_phases : target -> unit

exception Golden_failure of string

(** Profile the fault-free run.  Raises {!Golden_failure} if it does not
    exit normally.  [engine] (default {!default_engine}) selects how
    {!campaign_sample}/{!vulnmap_sample} execute; under
    [Checkpointed k] the same walk captures the golden checkpoints, so
    it is the target's only golden walk (counted in [ph_walks]). *)
val prepare : ?scope:scope -> ?engine:engine -> Machine.image -> target

(** Static sites with at least one eligible dynamic occurrence,
    ascending — the population adaptive allocation draws from. *)
val site_candidates : target -> int array

(** Structured description of a flipped destination: kind, register
    index, lane, flag — mirrored into the metrics stream so analysis
    never parses [dest_desc]. *)
type dest_info =
  | Igpr of Ferrum_asm.Reg.gpr * Ferrum_asm.Reg.size
  | Isimd of int * int  (** register, 64-bit lane *)
  | Iflag of Ferrum_asm.Cond.flag

(** Description of one injected fault. *)
type fault = {
  dyn_index : int;  (** which eligible dynamic write-back *)
  static_index : int;
  dest_desc : string;  (** e.g. "%rax", "%xmm15[1]", "flags.ZF" *)
  dest_info : dest_info option;  (** [None] when the site was unreached *)
  bit : int;  (** first flipped bit *)
}

(** Run once, flipping [fault_bits] (default 1) distinct bits of one
    destination of the [dyn_index]-th eligible write-back. *)
val inject :
  ?fault_bits:int -> target -> Rng.t -> dyn_index:int ->
  classification * fault

(** Like {!inject}, but also returns the final machine state, calls
    [on_inject] right after the bit flip (with the corrupted state), and
    calls [observe] (e.g. {!Ferrum_machine.Flight.observe}) after the
    injection logic on every retired instruction, so it sees post-flip
    state. *)
val inject_full :
  ?fault_bits:int ->
  ?on_inject:(Machine.state -> unit) ->
  ?observe:(Machine.state -> int -> unit) ->
  target -> Rng.t -> dyn_index:int ->
  classification * fault * Machine.state

(** {1 Per-injection records (campaign metrics)}

    One structured record per injected run — site, opcode, destination,
    bit, classification, dynamic cost — for streaming JSONL export.
    Records carry no wall-clock values, so a campaign's record stream is
    byte-identical for a given seed. *)

type record = {
  sample : int;  (** 0-based injection number within the campaign *)
  r_dyn_index : int;
  r_static_index : int;  (** static site, -1 when unreached *)
  opcode : string;  (** mnemonic of the targeted instruction *)
  dest : string;  (** e.g. "%rax", "%xmm15[1]", "flags.ZF" *)
  r_dest : dest_info option;  (** structured view of [dest] *)
  r_bit : int;
  r_class : classification;
  steps : int;  (** dynamic instructions of the injected run *)
  cycles : float;  (** model cycles of the injected run *)
}

val record_to_json : record -> Ferrum_telemetry.Json.t

(** Schema of one record line, for `ferrum metrics` and the smoke
    check. *)
val record_fields : Ferrum_telemetry.Metrics.field list

(** v1 record schema (no structured destination), for validating files
    written before the v2 bump. *)
val record_fields_v1 : Ferrum_telemetry.Metrics.field list

(** Schema name of injection-campaign metrics files
    (["ferrum.injection.v2"]: v1 plus the structured
    [dest_kind]/[dest_reg]/[dest_lane]/[dest_flag] coordinates). *)
val metrics_kind : string

val metrics_kind_v1 : string

type campaign_result = {
  counts : counts;
  target : target;
  faults : (classification * fault) list;  (** newest first *)
}

(** One campaign sample, addressed by its global 0-based index.  The
    per-sample RNG is a pure function of [seed] and [sample]
    ({!Rng.split_at}), so any subrange of a campaign can run anywhere —
    a shard needs only its index range — and still reproduce the
    sequential run bit-for-bit.

    [site] (default -1) aims the sample: negative draws uniformly over
    all eligible dynamic write-backs (the flat campaign), a static site
    index draws uniformly over that site's occurrences (the adaptive
    allocator).  Either way exactly one draw is consumed before the
    bit choice, so the rest of the per-sample stream is identical
    across policies. *)
val campaign_sample :
  ?fault_bits:int -> ?site:int -> target -> seed:int64 -> sample:int ->
  classification * fault * record

(** Sample [samples] single-fault runs; bit-reproducible per seed.
    [on_record] streams one {!record} per injection in sample order;
    [progress] is called after every sample with [done_so_far total];
    [on_stats] observes the running outcome counts every [samples/32]
    injections and at the end — the per-batch confidence hook. *)
val campaign :
  ?scope:scope -> ?seed:int64 -> ?fault_bits:int -> ?engine:engine ->
  ?on_record:(record -> unit) -> ?progress:(int -> int -> unit) ->
  ?on_stats:(spent:int -> counts -> unit) ->
  samples:int -> Machine.image -> campaign_result

(** {1 Adaptive sample allocation}

    FastFlip-style uncertainty-directed sampling: run the campaign in
    rounds, and spend each round's samples on the static sites whose
    SDC estimates are least certain. *)

(** [rounds] budget slices (default 8); [target_ci] > 0 stops early (at
    round granularity) once every candidate site's Wilson half-width is
    at or under the target (default 0: always spend the budget). *)
type policy = { rounds : int; target_ci : float }

val default_policy : policy

(** Contiguous global-sample ranges [(lo, hi)] for the rounds:
    near-equal, first [budget mod rounds] rounds one larger, clamped so
    every round is non-empty.  Empty on a non-positive budget. *)
val plan_rounds : rounds:int -> budget:int -> (int * int) array

(** Allocate [n] samples over {!site_candidates}, proportionally to the
    Wilson half-widths of their current SDC tallies ([tally site]),
    largest-remainder apportioned with ties to the lower static index.
    Returns the per-sample site assignment, sites ascending with
    multiplicity — a pure function of the tallies, hence
    byte-reproducible for any shard count. *)
val allocate :
  target -> tally:(int -> Ferrum_telemetry.Stats.tally) -> n:int ->
  int array

(** SDC coverage relative to the raw baseline (paper §IV-A3):
    [(p_raw - p_prot) / p_raw], clamped to [0; 1]. *)
val sdc_coverage : raw:counts -> protected_:counts -> float

(** Runtime overhead (paper §IV-A3): [(prot - raw) / raw]. *)
val overhead : raw_cycles:float -> prot_cycles:float -> float

(** {1 Propagation tracing}

    Lockstep replay against the golden run; see
    {!Ferrum_telemetry.Propagation}. *)

module Propagation = Ferrum_telemetry.Propagation

(** Like {!inject_full}, but with the golden run executing in lockstep:
    also returns the propagation summary — first architectural
    divergence, taint spread, detection latency, and the escape timeline
    for SDCs. *)
val trace_propagation :
  ?fault_bits:int -> target -> Rng.t -> dyn_index:int ->
  classification * fault * Propagation.summary

(** {1 Per-static-instruction vulnerability maps}

    A campaign aggregated by static injection site: outcome distribution
    and mean detection latency per instruction (FastFlip's unit of
    analysis), exportable as [ferrum.vulnmap.v1] JSONL. *)

(** Outcome distribution and summed detection latency of one site. *)
type site_stat = {
  s_counts : counts;
  s_det_steps : int;  (** summed detection latency of detected runs *)
  s_det_cycles : float;
}

type vulnmap = {
  v_target : target;
  v_sites : site_stat array;  (** indexed by static instruction *)
  v_counts : counts;  (** whole-campaign totals *)
  v_samples : int;
  v_latencies : (int * float) list;
      (** (steps, cycles) of every detected run, in sample order *)
  v_escapes : (int * Propagation.escape) list;
      (** sample index and explanation of every SDC, in sample order *)
}

(** One traced campaign sample, addressed by its global index — the
    same RNG stream as {!campaign_sample}, so the record stream is
    byte-identical whether or not tracing is on. *)
val vulnmap_sample :
  ?fault_bits:int -> ?site:int -> target -> seed:int64 -> sample:int ->
  classification * fault * record * Propagation.summary

(** Incremental vulnerability-map aggregation.  Feed samples in global
    order: the latency cycle sums are floating-point, so only an
    identical fold order reproduces the sequential map byte-for-byte —
    this is what a sharded campaign's merge step uses. *)
type vulnmap_builder

val vulnmap_builder : target -> vulnmap_builder

(** Add one sample's outcome.  [latency] is the detection latency of a
    [Detected] run ([None] otherwise); [escape] the explanation of an
    [Sdc] ([None] otherwise). *)
val vulnmap_add :
  vulnmap_builder -> sample:int -> static_index:int -> classification ->
  latency:(int * float) option -> escape:Propagation.escape option -> unit

val vulnmap_build : vulnmap_builder -> vulnmap

(** Sample exactly as {!campaign} does (same seed, same faults), but
    trace each injection and aggregate per static site.  [on_record]
    streams the same per-injection records as {!campaign}. *)
val vulnmap_campaign :
  ?scope:scope -> ?seed:int64 -> ?fault_bits:int -> ?engine:engine ->
  ?on_record:(record -> unit) -> ?progress:(int -> int -> unit) ->
  ?on_stats:(spent:int -> counts -> unit) ->
  samples:int -> Machine.image -> vulnmap

(** Mean detection latency (steps, cycles) of a site; [None] when no
    injection there was detected. *)
val mean_latency : site_stat -> (float * float) option

(** One JSON object per eligible (or hit) site, ordered by static index;
    byte-identical for a given seed. *)
val vulnmap_rows : vulnmap -> Ferrum_telemetry.Json.t list

(** Schema of one vulnerability-map row. *)
val vulnmap_fields : Ferrum_telemetry.Metrics.field list

(** Schema name of vulnerability-map metrics files. *)
val vulnmap_kind : string
