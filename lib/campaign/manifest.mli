(** Replayable run manifests ([ferrum.manifest.v1]).

    One JSON object per run directory: campaign configuration, shard
    map, the schema versions of the files alongside it, and workload
    digests (printed-program MD5 plus golden-run invariants) that gate
    resume — a part file is only trusted if the manifest still matches
    the workload. *)

module F = Ferrum_faultsim.Faultsim

type t = {
  benchmark : string;
  technique : string;  (** short name, or "raw" *)
  samples : int;
  seed : int64;
  shards : int;
  fault_bits : int;
  scope : string;  (** "original" | "all-sites" *)
  traced : bool;
  engine : string;  (** execution engine, {!F.engine_name} form *)
  policy : string;  (** sample allocation: "flat" | "adaptive" *)
  rounds : int;  (** adaptive allocation rounds (1 when flat) *)
  target_ci : float;  (** early-stop CI half-width target (0 = none) *)
  shard_map : Shard.range array;
  program_digest : string;  (** MD5 hex of the printed assembly *)
  static_instructions : int;
  golden_steps : int;
  golden_cycles : float;
  eligible_steps : int;
  profile : (string * float) list;
      (** provenance name -> golden cycles (overhead split) *)
  schemas : (string * string) list;  (** file -> schema kind *)
}

(** MD5 hex of the printed assembly — the workload identity a resume
    checks against. *)
val program_digest : Ferrum_asm.Prog.t -> string

val make :
  ?policy:string -> ?rounds:int -> ?target_ci:float -> benchmark:string ->
  technique:string -> samples:int -> seed:int64 -> shards:int ->
  fault_bits:int -> all_sites:bool -> traced:bool ->
  program:Ferrum_asm.Prog.t -> F.target -> t
(** [policy] (default ["flat"]), [rounds] (default [1]) and
    [target_ci] (default [0.]) record the sample-allocation policy.
    Adaptive campaigns must record ["adaptive"], their round count and
    their early-stop target: all three feed {!compatible} (an adaptive
    part file is only meaningful under the allocation schedule that
    produced it) and {!digest}.  Floats are stored as their JSON text
    reads back, so [of_json (to_json m) = m] and {!digest} survives
    {!save}/{!load}.  Equal to [of_workload ... (workload ~program
    target)]. *)

(** What a manifest derives from the prepared workload alone — program
    digest, static count, golden invariants, engine and provenance
    profile — so a caller that keeps a prepared target can make
    manifests for many campaign configurations without printing the
    program again.  Reads the target's golden-walk tallies; runs
    nothing. *)
type workload

val workload : program:Ferrum_asm.Prog.t -> F.target -> workload

val of_workload :
  ?policy:string -> ?rounds:int -> ?target_ci:float -> benchmark:string ->
  technique:string -> samples:int -> seed:int64 -> shards:int ->
  fault_bits:int -> all_sites:bool -> traced:bool -> workload -> t

val to_json : t -> Ferrum_telemetry.Json.t

(** [compatible recorded fresh] is true when part files written under
    the [recorded] manifest hold exactly the sample streams the
    [fresh] configuration would produce — same program digest, seed,
    samples, fault bits, scope, traced mode, execution engine,
    allocation policy (policy, rounds, target CI) and shard map.  Engines produce bit-identical streams, but gating on
    the engine keeps a run directory attributable to one execution
    path (and protects resumes if an engine ever changes).  Display
    metadata (benchmark/technique names, profile) is not compared. *)
val compatible : t -> t -> bool

(** Content address of a run: MD5 hex over the canonical manifest
    JSON.  Identical jobs (same program, seed, samples, fault bits,
    scope, engine, shard map, metadata) share a digest, which is what
    keys the content-addressed run store. *)
val digest : t -> string

val file : string
(** ["manifest.json"] *)

val save : dir:string -> t -> unit
val load : dir:string -> (t, string) result
