(** Assembly-level fault injection (paper §II-B, §IV-A2).

    Fault model: a single bit flip (or, for the E11 extension, several
    distinct bits) in the destination of one dynamically executed
    instruction — a general-purpose register, a 64-bit SIMD lane, or one
    of the RFLAGS bits the instruction defines — applied immediately
    after write-back.  Memory and caches are assumed ECC-protected and
    are never targets.  One fault per run; campaigns sample dynamic
    sites uniformly, as the paper does with 1000 runs per benchmark.

    This module runs one sample at a time ({!campaign_sample},
    {!vulnmap_sample}); [Ferrum_campaign.Runner.run] is the campaign
    loop over them. *)

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
    target/worker, unobserved prefix, and a traced run's tracer
    attached at the flip.  [Checkpointed k]: additionally restore the
    golden-run checkpoint (captured every [k] dynamic instructions)
    nearest below the flip point, paying only the suffix, and end an
    untraced suffix at the first checkpoint whose state it matches. *)
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

val pp_counts : Format.formatter -> counts -> unit

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
  mutable ph_restores : int;
      (** slot restores: one per fast sample, plus the lockstep golden
          slot's of a traced one ({!vulnmap_sample}, a retrace) and the
          golden cursor's in {!run_window} *)
  mutable ph_prefix_steps : int;
      (** unobserved replay up to the flip; in {!run_window}, the golden
          cursor's steps, shared by the samples that run off it *)
  mutable ph_forward_steps : int;
      (** the part of [ph_prefix_steps] run fused, up to the start of the
          flip's block of [B] steps (see [eligible_upto]); the rest of
          a prefix is single-stepped *)
  mutable ph_suffix_steps : int;  (** flip + post-flip execution *)
  mutable ph_decodes : int;
      (** decodes of this target: 1 in the process that ran {!prepare},
          0 in a campaign worker (it inherits the decode) *)
  mutable ph_fused_steps : int;
      (** suffix steps retired as fused superinstruction pairs *)
  mutable ph_converged : int;
      (** untraced suffixes ended early at a golden checkpoint whose
          state they matched (checkpointed engine only); a traced suffix
          always runs to the end *)
  mutable ph_skipped_steps : int;
      (** golden steps those converged suffixes did not execute; not
          counted in [ph_suffix_steps] *)
  mutable ph_retraces : int;
      (** SDCs of a checked build that a traced {!run_window} ran again
          under the tracer, for their escape class alone: each stops
          once its escape is decided
          ({!Ferrum_telemetry.Propagation.decided}); their steps count
          in the phases above too *)
  mutable ph_lockstep_steps : int;
      (** steps the lockstep tracer's golden replica took beside a
          traced run ({!Ferrum_telemetry.Propagation.lockstep_steps}):
          from the flip on a fast engine, from the first step on the
          scratch engine, up to the run's end, its control divergence
          or, in a re-trace, its stop *)
}

(** {!run_window}'s per-target scratch. *)
type window

(** A profiled program ready for injection.  [pre] is the program's one
    decode and [cache] the golden checkpoints {!prepare} captured during
    its one golden walk, so forked campaign workers inherit both and
    never decode or walk again.  The trailing fields mark the last
    flip and lazily cache the pooled run states (the injected run, its
    lockstep golden run and {!run_window}'s golden cursor), the
    lockstep tracer, the window scratch, the bit-draw scratch and
    per-process tables. *)
type target = {
  img : Machine.image;
  eligible : bool array;
  pre : Ferrum_machine.Predecode.t;
      (** the decoded program, with [eligible] as the fusion [avoid]
          set, so injection sites never sit in the second half of a
          superinstruction *)
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
  eligible_upto : int array;
      (** per block boundary [b] ([0 <= b <= golden_steps / B], [B] a
          fixed block of 512 steps): golden eligible retirements among
          [1 .. b * B].  A prefix aimed at dynamic
          write-back [d] runs fused to the start of the last block with
          [eligible_upto.(b) <= d] and single-steps only the rest.  When
          [golden_steps] is a multiple of [B] the last entry is the
          exit step's. *)
  has_checks : bool;
      (** any [Check]-provenance instruction in the image, as
          {!Propagation.summary}'s [program_has_checks] *)
  fuel : int;  (** injected-run budget: 3x golden + slack *)
  engine : engine;
  cache : Ferrum_machine.Snapshot.cache;
      (** golden checkpoints (none unless the engine is checkpointed) *)
  mutable flip_steps : int;
      (** steps of the last fast-engine sample right after its flip
          retired: a Detected run's latency counts from here *)
  flip_cycles : Machine.fcell;  (** and its cycles then *)
  mutable slot_ : Ferrum_machine.Snapshot.slot option;
  mutable golden_slot_ : Ferrum_machine.Snapshot.slot option;
  mutable tracer_ : Ferrum_telemetry.Propagation.t option;
      (** the lockstep tracer of every traced run, built on the first
          one and reused: its per-instruction tables and taint sets are
          built once per target and process *)
  mutable cursor_ : Ferrum_machine.Snapshot.slot option;
  mutable window_ : window option;
  picks : int array;
  mutable occ_ : int array array option;
  phases : phases;
}

(** This process's engine-phase tallies for [target]. *)
val phases : target -> phases

(** [target.pre]. *)
val predecoded : target -> Ferrum_machine.Predecode.t

(** Zero the tallies, and have {!run_window}'s golden cursor restored
    before its next use (each campaign worker resets before every shard
    so its shard's counters cover exactly its own work, whatever shards
    it ran before). *)
val reset_phases : target -> unit

exception Golden_failure of string

(** Profile the fault-free run.  Raises {!Golden_failure} if it does not
    exit normally.  [engine] (default {!default_engine}) selects how
    {!inject}, {!campaign_sample} and {!vulnmap_sample} execute; under
    [Checkpointed k] the same walk captures the golden checkpoints, so
    it is the target's only golden walk (counted in [ph_walks]).  It
    also makes the target's only decode, [pre], which every engine runs
    (counted in [ph_decodes]). *)
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
    destination of the [dyn_index]-th eligible write-back, on the
    target's engine (see {!prepare}): every engine gives the same class
    and fault. *)
val inject :
  ?fault_bits:int -> target -> Rng.t -> dyn_index:int ->
  classification * fault

(** The scratch path, whatever the target's engine: like {!inject}, but
    from a fresh state with every step observed.  Also returns the final
    machine state, calls [on_inject] right after the bit flip (with the
    corrupted state), and calls [observe] (e.g.
    {!Ferrum_machine.Flight.observe}) after the injection logic on every
    retired instruction, so it sees post-flip state. *)
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

(** [Json.to_string (record_to_json r)], appended to a buffer without
    building the tree; what campaign workers ship. *)
val write_record : Buffer.t -> record -> unit

(** Schema of one record line, for `ferrum metrics` and the smoke
    check. *)
val record_fields : Ferrum_telemetry.Metrics.field list

(** Schema name of injection-campaign metrics files
    (["ferrum.injection.v2"]: each record carries the structured
    [dest_kind]/[dest_reg]/[dest_lane]/[dest_flag] coordinates). *)
val metrics_kind : string

(** One campaign sample, addressed by its global 0-based index.  The
    per-sample RNG is a pure function of [seed] and [sample]
    ({!Rng.split_at}), so any subrange of a campaign can run anywhere —
    a shard needs only its index range — and a campaign's records are
    the same for any shard count.

    [site] (default -1) aims the sample: negative draws uniformly over
    all eligible dynamic write-backs (the flat campaign), a static site
    index draws uniformly over that site's occurrences (the adaptive
    allocator).  Either way exactly one draw is consumed before the
    bit choice, so the rest of the per-sample stream is identical
    across policies. *)
val campaign_sample :
  ?fault_bits:int -> ?site:int -> target -> seed:int64 -> sample:int ->
  classification * fault * record

(** Samples per {!run_window} window (512). *)
val window_size : int

(** [run_window ~traced ~site t ~seed ~lo ~n ~render ~emit] runs
    campaign samples [lo, lo + n) ([0 <= n <= window_size]) and gives
    the records {!campaign_sample} gives, sample [s] aimed at [site s]
    (negative = uniform).  The samples run in dyn_index order off one
    golden run, a pooled slot of the target that is never flipped: each
    prefix starts from where that run stands or from the flip's
    checkpoint, whichever is nearer, and a flip alone in its checkpoint
    interval runs from the checkpoint, as {!campaign_sample} runs it.

    [traced] adds what a vulnerability map keeps of each sample
    ({!vulnmap_add}), equal to what {!vulnmap_sample}'s summary gives:
    a Detected run's [latency] and an SDC's [escape] ([None]
    otherwise, and always [None] untraced).  On the fast engines every
    sample still runs untraced: the latency is measured from the flip
    to the run's end, an SDC of a build without checkers escapes as
    [Unprotected_program], and only an SDC of a checked build runs
    again under the lockstep tracer, from its checkpoint (counted in
    [ph_retraces]).  That re-trace stops as soon as its escape is
    decided ({!Ferrum_telemetry.Propagation.decided}), the escape of
    the whole run from then on.  The scratch engine traces every
    sample to its end.

    [render buf r ~latency ~escape] writes sample [r]'s line into
    [buf] as it finishes, in run order; then [emit cls ~steps text pos
    len] receives each sample's class, steps and line ([text], from
    [pos], [len] bytes; valid during the call), in sample order.
    @raise Invalid_argument if [n] is out of range. *)
val run_window :
  ?fault_bits:int -> traced:bool -> site:(int -> int) -> target ->
  seed:int64 -> lo:int -> n:int ->
  render:
    (Buffer.t ->
    record ->
    latency:(int * float) option ->
    escape:Ferrum_telemetry.Propagation.escape option ->
    unit) ->
  emit:(classification -> steps:int -> Bytes.t -> int -> int -> unit) ->
  unit

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
    for SDCs.  This is the scratch oracle, whatever the target's engine:
    a fresh state, every step observed to the end of the run.
    {!vulnmap_sample} runs it on [Scratch] targets; on the fast engines
    it takes the same fast path as an untraced sample, with the tracer
    attached from the flip on, and returns the same classification,
    fault and summary as this. *)
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
  v_escapes : (int * int * Propagation.escape) list;
      (** sample index, static site and explanation of every SDC, in
          sample order *)
}

(** One traced campaign sample, addressed by its global index — the
    same RNG stream as {!campaign_sample}, so the record stream is
    byte-identical whether or not tracing is on.  Unlike a traced
    {!run_window}, it runs the full lockstep tracer on every sample, so
    it returns the whole propagation summary. *)
val vulnmap_sample :
  ?fault_bits:int -> ?site:int -> target -> seed:int64 -> sample:int ->
  classification * fault * record * Propagation.summary

(** Incremental vulnerability-map aggregation, as a campaign's merge
    step does it.  Feed samples in global order: the latency cycle sums
    are floating-point, so only that fold order gives the same map
    byte-for-byte for any shard count. *)
type vulnmap_builder

val vulnmap_builder : target -> vulnmap_builder

(** Add one sample's outcome at [static_index] (-1 when unreached).
    [latency] is the detection latency of a
    [Detected] run ([None] otherwise); [escape] the explanation of an
    [Sdc] ([None] otherwise). *)
val vulnmap_add :
  vulnmap_builder -> sample:int -> static_index:int -> classification ->
  latency:(int * float) option -> escape:Propagation.escape option -> unit

val vulnmap_build : vulnmap_builder -> vulnmap

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
