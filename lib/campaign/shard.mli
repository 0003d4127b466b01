(** Deterministic campaign sharding.

    A shard is a contiguous range of global sample indices.  The
    per-sample RNG is a pure function of the campaign seed and the
    global index, so concatenating shard outputs in index order gives
    byte-identical campaign output for any shard count.  {!run_range}
    is the one loop over a campaign's samples; {!Runner.run} drives it
    in forked workers. *)

module F = Ferrum_faultsim.Faultsim
module Propagation = Ferrum_telemetry.Propagation
module Json = Ferrum_telemetry.Json

(** Sample range [lo, hi). *)
type range = { lo : int; hi : int }

val range_samples : range -> int

(** Near-equal contiguous split of [samples] into at most [shards]
    ranges (clamped to [1, samples]; empty on [samples <= 0]). *)
val plan : shards:int -> samples:int -> range array

(** One sample's shard output: the serialized record line plus the
    traced-campaign aggregation inputs.  Detection-latency cycles cross
    process boundaries as exact IEEE-754 bit patterns so the parent's
    re-summation in global order is bit-identical for any shard
    count. *)
type sample_out = {
  o_sample : int;
  o_class : F.classification;
  o_static : int;  (** static site, -1 when unreached *)
  o_record : string;  (** serialized record JSON (one line) *)
  o_latency : (int * float) option;  (** Detected runs only *)
  o_escape : Propagation.escape option;  (** Sdc runs only *)
  o_steps : int;  (** logical-clock contribution *)
}

val sample_out_to_json : sample_out -> Json.t
val sample_out_of_json : Json.t -> (sample_out, string) result

(** Run one shard's samples in index order; [traced] selects the
    lockstep-traced (vulnmap) variant.  [assign] maps a global sample
    index to the static site the adaptive allocator aimed it at
    (negative = uniform draw; default). *)
val run_range :
  ?fault_bits:int -> ?assign:(int -> int) -> traced:bool -> seed:int64 ->
  F.target -> range -> on_sample:(sample_out -> unit) -> unit
