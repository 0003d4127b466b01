(** Machine-readable export of experiment results: one CSV line per
    (benchmark, configuration) with sizes, cycles, overheads, coverage,
    transform time and raw outcome counts. *)

val csv : Experiments.bench_result list -> string

val write_csv : string -> Experiments.bench_result list -> unit

val bench_kind : string
(** ["ferrum.bench.v1"] — the whole-document schema below. *)

(** One benchmark's flat-vs-adaptive allocation comparison: mean Wilson
    95% half-width (and mean samples) over the worst decile of
    vulnerability-map sites, same total budget for both schemes. *)
type adaptive_result = {
  a_benchmark : string;
  a_budget : int;
  a_rounds : int;
  a_sites : int;
  a_decile : int;
  a_flat_n : float;
  a_adaptive_n : float;
  a_flat_hw : float;
  a_adaptive_hw : float;
  a_flat_wall : float;
  a_adaptive_wall : float;
}

(** Implied sample savings of adaptive allocation: half-width scales as
    1/sqrt(n), so [1 - (adaptive_hw / flat_hw)^2] is the fraction of
    the flat budget that directed sampling saved on the worst decile. *)
val adaptive_savings : adaptive_result -> float

(** One benchmark's injection-engine throughput (samples/sec) under the
    scratch, pooled and checkpointed ([p_predecoded], ckpt-4096)
    engines. *)
type perf_result = {
  p_benchmark : string;
  p_scratch : float;
  p_pooled : float;
  p_predecoded : float;
}

val write_metrics_json :
  ?adaptive:adaptive_result list ->
  ?perf:perf_result list ->
  string ->
  samples:int ->
  seed:int64 ->
  experiments:(string * float) list ->
  Experiments.bench_result list ->
  unit
