(** Deterministic campaign sharding.

    A shard is a contiguous range of global sample indices.  The
    per-sample RNG is a pure function of the campaign seed and the
    global index, so concatenating shard outputs in index order gives
    byte-identical campaign output for any shard count.  {!run_range}
    is the one loop over a campaign's samples; {!Runner.run} drives it
    in forked workers. *)

module F = Ferrum_faultsim.Faultsim
module Propagation = Ferrum_telemetry.Propagation

(** Sample range [lo, hi). *)
type range = { lo : int; hi : int }

val range_samples : range -> int

(** Near-equal contiguous split of [samples] into at most [shards]
    ranges (clamped to [1, samples]; empty on [samples <= 0]). *)
val plan : shards:int -> samples:int -> range array

(** One sample's shard output, as the parent reads it off its wire
    line: the serialized record plus the traced-campaign aggregation
    inputs. *)
type sample_out = {
  o_sample : int;
  o_class : F.classification;
  o_static : int;  (** static site, -1 when unreached *)
  o_record : string;  (** serialized record JSON (one line) *)
  o_latency : (int * float) option;  (** Detected runs only *)
  o_escape : Propagation.escape option;  (** Sdc runs only *)
  o_steps : int;  (** logical-clock contribution *)
}

(** [write_sample buf r ~latency ~escape] appends record [r]'s wire
    payload, which {!Runner} sends under the tag ["s"]: tab-separated the
    sample index, class name, static site, steps, detection-latency
    steps ([-1] without a latency), the latency cycles' IEEE-754 bit
    pattern as 16 hex digits (empty without) so the parent's re-summation
    in global order is bit-identical for any shard count, the escape
    name (empty without), and last the record rendered verbatim by
    {!F.write_record}.  Only a non-integral cycle count allocates. *)
val write_sample :
  Buffer.t ->
  F.record ->
  latency:(int * float) option ->
  escape:Propagation.escape option ->
  unit

(** Read a {!write_sample} payload back without parsing the record:
    [Error] on a missing or extra separator, a field that does not
    parse, or a record that is truncated or names another sample. *)
val read_sample : string -> (sample_out, string) result

(** Run one shard's samples, window by window in flip order off one
    golden run ({!F.run_window}); [traced] adds the vulnmap inputs
    (detection latency, SDC escape) to each line.  [on_sample cls
    ~steps text pos len] receives each sample's class, steps and
    {!write_sample} payload ([len] bytes of [text] from [pos], valid
    during the call), in index order.
    [assign] maps a global sample index to the static site the adaptive
    allocator aimed it at (negative = uniform draw; default). *)
val run_range :
  ?fault_bits:int -> ?assign:(int -> int) -> traced:bool -> seed:int64 ->
  F.target -> range ->
  on_sample:(F.classification -> steps:int -> Bytes.t -> int -> int -> unit) ->
  unit
