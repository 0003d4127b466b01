(** Typed campaign event stream ([ferrum.events.v1]).

    Campaign orchestration emits these as flat JSONL — lifecycle events
    plus progress heartbeats carrying outcome tallies and an ETA on a
    deterministic logical clock (cumulative simulated steps, never
    wall-clock), so an event log is byte-reproducible per seed and
    validates under the same {!Metrics} machinery as every other
    schema. *)

val kind : string
(** ["ferrum.events.v1"] *)

(** {1 Outcome tallies} *)

type tally = {
  benign : int;
  sdc : int;
  detected : int;
  crash : int;
  timeout : int;
}

val tally_total : tally -> int

(** {1 Events} *)

type body =
  | Campaign_started of { shards : int; samples : int }
  | Shard_started of { lo : int; hi : int }  (** sample range [lo, hi) *)
  | Progress of {
      done_ : int;
      total : int;
      tally : tally;
      clock : int;
      spent : int;
          (** samples of the global budget spent as of this heartbeat
              (prior rounds plus this shard's progress); -1 when the
              emitter does not track a budget *)
      budget : int;  (** global campaign sample budget; -1 if unknown *)
      hw : float;
          (** live Wilson 95% half-width of the campaign SDC estimate *)
    }
  | Shard_finished of { done_ : int; total : int; tally : tally; clock : int }
  | Shard_retry of { reason : string }
      (** the previous attempt of this shard died; a fresh attempt
          follows *)
  | Campaign_finished of { total : int; tally : tally; clock : int }

type t = {
  seq : int;  (** 0-based position in the merged log *)
  shard : int;  (** owning shard, -1 for campaign-level events *)
  attempt : int;  (** 0-based retry attempt of the owning shard *)
  body : body;
}

val body_name : body -> string

(** Deterministic ETA on the logical clock: clock units still to run,
    extrapolated from the per-sample rate so far.  Clamped against the
    zero-rate edge (a shard finishing within one heartbeat interval):
    with work remaining but no observed rate ([done_ <= 0] or
    [clock <= 0]) it assumes one clock unit per remaining sample, and
    with nothing remaining it is exactly 0. *)
val eta : done_:int -> total:int -> clock:int -> float

(** Flat JSON object with every schema field present (unused scalars
    -1, unused tallies 0, unused detail ""). *)
val to_json : t -> Json.t

val of_json : Json.t -> (t, string) result
val of_string : string -> (t, string) result

(** {1 Schema} *)

(** Field list for {!Metrics.validate_lines}. *)
val fields : Metrics.field list

(** Header line for an events file, with caller context appended. *)
val header : (string * Json.t) list -> Json.t

(** {1 Replay}

    Re-derive the campaign outcome from record lines alone (header
    excluded) and cross-check internal consistency: contiguous
    sequence numbers, [campaign_started] first, [campaign_finished]
    last, per-shard final tallies and clocks summing to the campaign
    totals.  Returns the final (tally, clock). *)
val replay : string list -> (tally * int, string) result
