(** Sharded campaign execution on persistent forked workers.

    Each target has a pool of workers, forked on its first campaign and
    kept for every later one: every round of an adaptive campaign and
    every repeated campaign on the target pay fork and copy-on-write
    once per worker.  A pool closes when its target is collected and at
    exit; at most eight targets keep theirs, the least recently used
    closing first.  The parent sends an idle worker one command per
    shard (shard id, attempt, range, seed, fault width, traced flag,
    heartbeats, the heartbeat's budget figures, the shard's trace
    context, the sabotage verdict and the range's adaptive allocation);
    the worker streams typed events and per-sample outputs back over
    its pipe, ends with a done marker and waits for the next command.
    The parent multiplexes the busy workers with [Unix.select], kills,
    reaps and replaces a worker that dies or garbles its stream,
    retries the shard, and merges shard outputs in global sample order
    — byte-identical for any shard count.  A worker that died while
    idle is replaced without a retry.  This is the one campaign loop:
    every campaign, from the CLI, the serve daemon, the report tables,
    the benchmarks and the examples, runs here over
    {!F.campaign_sample} or {!F.vulnmap_sample}. *)

module F = Ferrum_faultsim.Faultsim
module Events = Ferrum_telemetry.Events
module Trace = Ferrum_telemetry.Trace

type mode =
  | Inject  (** plain campaign: outcome counts + record stream *)
  | Traced  (** lockstep-traced campaign: vulnerability map as well *)

(** FastFlip-style uncertainty-directed sampling: run the campaign in
    [rounds] budget slices and spend each round after the first on the
    static sites whose SDC estimates are least certain; [target_ci] > 0
    stops early (at round granularity) once every candidate site's
    Wilson half-width is at or under the target (0: always spend the
    budget). *)
type policy = { rounds : int; target_ci : float }

(** View a campaign's outcome counts as an event tally. *)
val tally_of_counts : F.counts -> Events.tally

(** What {!stats_lines} builds the stats document from. *)
type stats_src

type result = {
  counts : F.counts;
  record_lines : string list;
      (** serialized per-injection records, global sample order —
          concatenating them under {!Store.injection_header} gives the
          [inject --metrics] file byte-for-byte *)
  vulnmap : F.vulnmap option;  (** [Traced] mode only *)
  clock : int;  (** logical clock: summed injected-run steps *)
  events : Events.t list;
      (** canonical merged event log: campaign_started, then per shard
          (index order) its retry markers and successful attempt's
          events, then campaign_finished; [seq] contiguous from 0 *)
  retried : int;  (** worker deaths recovered by retry *)
  stats_src : stats_src;
  trace_spans : string list;
      (** [ferrum.trace.v1] span rows of the stitched campaign trace:
          the runner's own spans (campaign / round / allocate / merge /
          stats, which packs the stats document's input) followed by
          each worker's spans in shard-id order — logical clocks only,
          byte-identical per seed for any shard count *)
  trace_walls : string list;
      (** wall-clock / CPU / peak-RSS sidecar rows for the same spans;
          non-deterministic, never byte-compared *)
}

(** The campaign's [ferrum.stats.v1] convergence document, built on
    demand from the merged sample stream in global order: trace rows
    (CI half-width vs. samples spent), per-site rows, one round row per
    round and the final campaign row. *)
val stats_lines : result -> string list

(** The pids of [target]'s live workers in this process, oldest first. *)
val worker_pids : F.target -> int list

(** Run a campaign of [samples] injections as rounds of [shards]
    shards each, on at most [workers] (default [min shards 4])
    concurrent workers of the target's pool.

    [samples] is a budget split into [policy.rounds] rounds; round 0
    samples uniformly over the eligible dynamic write-backs and each
    later round directs its samples at the sites with the widest Wilson
    SDC intervals so far (largest-remainder apportionment over the
    merged statistics of all prior rounds, ties to the lower static
    index).  Without [policy] the campaign is flat: one round, and
    every artifact is what [{ rounds = 1; target_ci = 0. }] gives.
    When [policy.target_ci > 0] the campaign stops after the first
    round in which every reached site's half-width is at or below the
    target; [Campaign_finished] then reports the samples actually
    spent.  Round [r]'s shard [s] runs under the global shard id
    [r * shards + s].  Rounds are barriers and allocations pure
    functions of merged prior output, so the result is byte-identical
    for any shard count.  [Campaign_started] carries the requested
    shard count.

    [heartbeats] (default 8) progress events per shard, with
    budget-denominated [spent]/[budget] and a live Wilson half-width;
    [retries] (default 2) extra attempts per shard before the campaign
    fails; [on_event] observes events live in arrival order — including
    heartbeats from attempts that later die, each closed off by a
    [Shard_retry] marker, so aggregating consumers should key on
    (shard, attempt) or treat a shard's latest event as authoritative
    (the [result]'s canonical log is ordered, renumbered and contains
    only successful attempts); [part_dir] persists each finished
    shard's stream (write-then-rename) and resumes from any complete
    part files already there; [sabotage] (tests) makes a worker die
    after [k] samples when it returns [Some k] for a (global shard id,
    attempt), evaluated in the parent and sent with the command;
    [garble] (tests) makes the parent read [f line] in place of the
    wire line of the attempt's [k]-th sample (0-based) when it returns
    [Some (k, f)] — a malformed, truncated or out-of-order line, which
    is handled like worker death.

    Raises [Invalid_argument] before any fork when [samples] is not
    positive or the target has no eligible injection sites, and
    [Failure] if a shard exhausts its retries (busy workers are killed
    and reaped first).

    Every campaign is traced: [trace_ctx] continues a caller's span
    context (e.g. the serve daemon's job span); otherwise a fresh trace
    is rooted whose id is [trace_id] or {!Trace.derive_id} of the
    campaign parameters.  The runner's own spans are "campaign" (with a
    "rounds" counter) over one "round" per round (with "round" and
    "samples" counters, and an "allocate" phase after the first), then
    "merge" and "stats" (packing {!stats_lines}' input).  Worker span
    contexts are keyed on the global shard id alone, so retries do not
    perturb span ids and [trace_spans] is byte-identical per seed. *)
val run :
  ?fault_bits:int ->
  ?heartbeats:int ->
  ?retries:int ->
  ?workers:int ->
  ?on_event:(Events.t -> unit) ->
  ?part_dir:string ->
  ?sabotage:(shard:int -> attempt:int -> int option) ->
  ?garble:(shard:int -> attempt:int -> (int * (string -> string)) option) ->
  ?policy:policy ->
  ?trace_ctx:Trace.ctx ->
  ?trace_id:string ->
  mode:mode ->
  shards:int ->
  seed:int64 ->
  samples:int ->
  F.target ->
  result
