(** Campaign job specs for the serve daemon.

    A spec is the [POST /jobs] body: the campaign configuration in
    canonical JSON, mirroring the [ferrum campaign] flags.  {!resolve}
    builds the same (program, target, manifest) triple the CLI builds,
    so a served job shares its {!Ferrum_campaign.Manifest.digest} with
    the equivalent command-line campaign. *)

module F = Ferrum_faultsim.Faultsim
module Json = Ferrum_telemetry.Json

type t = {
  benchmark : string;
  technique : string;  (** "raw" or a technique short name *)
  samples : int;
  seed : int64;
  shards : int;
  fault_bits : int;
  scope : string;  (** "original" | "all-sites" *)
  traced : bool;
  engine : string;  (** {!F.engine_name} form *)
}

(** Canonical rendering: fixed key order, stable across round-trips. *)
val to_json : t -> Json.t

val to_string : t -> string

(** Parse a submission; every field except [benchmark] defaults to the
    [ferrum campaign] flag default. *)
val of_json : Json.t -> (t, string) result

val of_string : string -> (t, string) result

type resolved = {
  spec : t;  (** normalised: re-serialising gives the canonical form *)
  program : Ferrum_asm.Prog.t;
  target : F.target;
  manifest : Ferrum_campaign.Manifest.t;
}

(** Validate against the catalogue and build the workload: build,
    protect and load the program, then {!F.prepare} it (one golden
    walk).  Pure and uncached: every call builds afresh. *)
val resolve : t -> (resolved, string) result

(** A fixed-capacity least-recently-used table of built workloads,
    keyed by the spec fields a workload depends on: benchmark,
    technique, scope and engine. *)
type memo

val memo : capacity:int -> memo

(** {!resolve} through a memo: a spec whose workload is stored reuses
    its program and (physically the same) target, and gets its
    manifest without building or walking anything.  Failed resolves
    are not stored.  The result equals {!resolve}'s: same program
    text, same target fields, same manifest. *)
val resolve_memo : memo -> t -> (resolved, string) result

(** Memo lookups answered from the table / that built a workload. *)
val memo_hits : memo -> int

val memo_misses : memo -> int
