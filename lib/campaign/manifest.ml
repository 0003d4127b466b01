(* Replayable run manifests: `ferrum.manifest.v1`.

   Everything needed to reproduce (or refuse to resume) a campaign run
   lives in one JSON object in the run directory: the campaign
   configuration, the shard map, the schema versions of the files
   alongside it, and digests of the workload — the printed program (the
   authoritative input) plus golden-run invariants that double as a
   cheap equivalence check before a resume reuses part files. *)

module F = Ferrum_faultsim.Faultsim
module Json = Ferrum_telemetry.Json
module Metrics = Ferrum_telemetry.Metrics
module Profile = Ferrum_telemetry.Profile

let kind = "ferrum.manifest.v1"

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

let program_digest p =
  Digest.to_hex (Digest.string (Ferrum_asm.Printer.program_to_string p))

(* Floats are kept as their JSON text reads back, so [of_json (to_json
   m) = m] and a saved manifest re-digests to the digest it was saved
   under.  [Json.float_repr]'s "%.12g" prints a non-integral sum such
   as 58302.99999999999 as "58303", which would read back as an integer
   and reprint as "58303.0". *)
let normal x = float_of_string (Json.float_repr x)

(* The part of a manifest that depends only on the prepared workload,
   not on the campaign configuration run over it. *)
type workload = {
  w_program_digest : string;
  w_static_instructions : int;
  w_golden_steps : int;
  w_golden_cycles : float;
  w_eligible_steps : int;
  w_engine : string;
  w_profile : (string * float) list;
}

let workload ~program (target : F.target) =
  {
    w_program_digest = program_digest program;
    w_static_instructions = Array.length target.F.img.F.Machine.code;
    w_golden_steps = target.F.golden_steps;
    w_golden_cycles = normal target.F.golden_cycles;
    w_eligible_steps = target.F.eligible_steps;
    w_engine = F.engine_name target.F.engine;
    w_profile =
      List.map
        (fun p ->
          ( Profile.prov_name p,
            normal target.F.golden_prov_cycles.(Profile.prov_index p) ))
        Profile.provenances;
  }

let of_workload ?(policy = "flat") ?(rounds = 1) ?(target_ci = 0.0)
    ~benchmark ~technique ~samples ~seed ~shards ~fault_bits ~all_sites
    ~traced (w : workload) =
  {
    benchmark;
    technique;
    samples;
    seed;
    shards;
    fault_bits;
    scope = (if all_sites then "all-sites" else "original");
    traced;
    engine = w.w_engine;
    policy;
    rounds;
    target_ci = normal target_ci;
    shard_map = Shard.plan ~shards ~samples;
    program_digest = w.w_program_digest;
    static_instructions = w.w_static_instructions;
    golden_steps = w.w_golden_steps;
    golden_cycles = w.w_golden_cycles;
    eligible_steps = w.w_eligible_steps;
    profile = w.w_profile;
    schemas =
      (("events.jsonl", Ferrum_telemetry.Events.kind)
      :: ("injection.jsonl", F.metrics_kind)
      :: ("stats.jsonl", Ferrum_telemetry.Stats.kind)
      :: ("trace.jsonl", Ferrum_telemetry.Trace.kind)
      ::
      (if traced then [ ("vulnmap.jsonl", F.vulnmap_kind) ] else []));
  }

let make ?policy ?rounds ?target_ci ~benchmark ~technique ~samples ~seed
    ~shards ~fault_bits ~all_sites ~traced ~program target =
  of_workload ?policy ?rounds ?target_ci ~benchmark ~technique ~samples ~seed
    ~shards ~fault_bits ~all_sites ~traced (workload ~program target)

let to_json (m : t) : Json.t =
  Json.Obj
    [
      ("schema", Json.Str kind);
      ("version", Json.Int Metrics.schema_version);
      ("benchmark", Json.Str m.benchmark);
      ("technique", Json.Str m.technique);
      ("samples", Json.Int m.samples);
      ("seed", Json.Str (Int64.to_string m.seed));
      ("shards", Json.Int m.shards);
      ("fault_bits", Json.Int m.fault_bits);
      ("scope", Json.Str m.scope);
      ("traced", Json.Int (if m.traced then 1 else 0));
      ("engine", Json.Str m.engine);
      ("policy", Json.Str m.policy);
      ("rounds", Json.Int m.rounds);
      ("target_ci", Json.Float m.target_ci);
      ( "shard_map",
        Json.Arr
          (Array.to_list m.shard_map
          |> List.map (fun (r : Shard.range) ->
                 Json.Obj
                   [ ("lo", Json.Int r.Shard.lo); ("hi", Json.Int r.hi) ])) );
      ("program_digest", Json.Str m.program_digest);
      ("static_instructions", Json.Int m.static_instructions);
      ("golden_steps", Json.Int m.golden_steps);
      ("golden_cycles", Json.Float m.golden_cycles);
      ("eligible_steps", Json.Int m.eligible_steps);
      ( "profile",
        Json.Obj (List.map (fun (p, c) -> (p, Json.Float c)) m.profile) );
      ( "schemas",
        Json.Obj (List.map (fun (f, s) -> (f, Json.Str s)) m.schemas) );
    ]

let ( let* ) = Result.bind

let int_member name j =
  match Json.member name j with
  | Some (Json.Int v) -> Ok v
  | _ -> Error (Fmt.str "manifest: bad field %S" name)

let str_member name j =
  match Json.member name j with
  | Some (Json.Str v) -> Ok v
  | _ -> Error (Fmt.str "manifest: bad field %S" name)

let float_member name j =
  match Json.member name j with
  | Some (Json.Float v) -> Ok v
  | Some (Json.Int v) -> Ok (float_of_int v)
  | _ -> Error (Fmt.str "manifest: bad field %S" name)

let of_json (j : Json.t) : (t, string) result =
  let* schema = str_member "schema" j in
  let* () =
    if schema = kind then Ok ()
    else Error (Fmt.str "manifest: schema is %S, expected %S" schema kind)
  in
  let* benchmark = str_member "benchmark" j in
  let* technique = str_member "technique" j in
  let* samples = int_member "samples" j in
  let* seed_s = str_member "seed" j in
  let* seed =
    match Int64.of_string_opt seed_s with
    | Some s -> Ok s
    | None -> Error "manifest: bad seed"
  in
  let* shards = int_member "shards" j in
  let* fault_bits = int_member "fault_bits" j in
  let* scope = str_member "scope" j in
  let* traced = int_member "traced" j in
  let* engine = str_member "engine" j in
  (* pre-stats manifests lack the allocation policy: default to the
     behavior they recorded (flat, one round, no CI target) *)
  let* policy =
    match Json.member "policy" j with
    | None -> Ok "flat"
    | Some (Json.Str p) -> Ok p
    | Some _ -> Error "manifest: bad field \"policy\""
  in
  let* rounds =
    match Json.member "rounds" j with
    | None -> Ok 1
    | Some (Json.Int r) -> Ok r
    | Some _ -> Error "manifest: bad field \"rounds\""
  in
  let* target_ci =
    match Json.member "target_ci" j with
    | None -> Ok 0.0
    | Some (Json.Float v) -> Ok v
    | Some (Json.Int v) -> Ok (float_of_int v)
    | Some _ -> Error "manifest: bad field \"target_ci\""
  in
  let* shard_map =
    match Json.member "shard_map" j with
    | Some (Json.Arr rs) ->
      let ranges =
        List.map
          (fun r ->
            let* lo = int_member "lo" r in
            let* hi = int_member "hi" r in
            Ok { Shard.lo; hi })
          rs
      in
      List.fold_right
        (fun r acc ->
          let* r = r in
          let* acc = acc in
          Ok (r :: acc))
        ranges (Ok [])
      |> Result.map Array.of_list
    | _ -> Error "manifest: bad shard_map"
  in
  let* program_digest = str_member "program_digest" j in
  let* static_instructions = int_member "static_instructions" j in
  let* golden_steps = int_member "golden_steps" j in
  let* golden_cycles = float_member "golden_cycles" j in
  let* eligible_steps = int_member "eligible_steps" j in
  let* profile =
    match Json.member "profile" j with
    | Some (Json.Obj fields) ->
      List.fold_right
        (fun (p, v) acc ->
          let* acc = acc in
          match v with
          | Json.Float c -> Ok ((p, c) :: acc)
          | Json.Int c -> Ok ((p, float_of_int c) :: acc)
          | _ -> Error "manifest: bad profile entry")
        fields (Ok [])
    | _ -> Error "manifest: bad profile"
  in
  let* schemas =
    match Json.member "schemas" j with
    | Some (Json.Obj fields) ->
      List.fold_right
        (fun (f, v) acc ->
          let* acc = acc in
          match v with
          | Json.Str s -> Ok ((f, s) :: acc)
          | _ -> Error "manifest: bad schemas entry")
        fields (Ok [])
    | _ -> Error "manifest: bad schemas"
  in
  Ok
    {
      benchmark;
      technique;
      samples;
      seed;
      shards;
      fault_bits;
      scope;
      traced = traced <> 0;
      engine;
      policy;
      rounds;
      target_ci;
      shard_map;
      program_digest;
      static_instructions;
      golden_steps;
      golden_cycles;
      eligible_steps;
      profile;
      schemas;
    }

(* Do the part files recorded under [recorded] describe the same
   sample streams the [fresh] configuration would produce?  Everything
   that feeds per-sample derivation or shard layout must match; display
   metadata (benchmark/technique names, profile rows) may differ. *)
let compatible (recorded : t) (fresh : t) =
  recorded.program_digest = fresh.program_digest
  && recorded.seed = fresh.seed
  && recorded.samples = fresh.samples
  && recorded.fault_bits = fresh.fault_bits
  && recorded.scope = fresh.scope
  && recorded.traced = fresh.traced
  && recorded.engine = fresh.engine
  && recorded.policy = fresh.policy
  && recorded.rounds = fresh.rounds
  && recorded.target_ci = fresh.target_ci
  && recorded.shard_map = fresh.shard_map

(* Content address of a run: MD5 over the canonical manifest JSON.
   Everything that determines a campaign's output — program digest,
   seed, samples, fault bits, scope, engine, shard map — feeds the
   serialization, so two submissions of the same job share a digest
   and an identical stored result. *)
let digest (m : t) = Digest.to_hex (Digest.string (Json.to_string (to_json m)))

let file = "manifest.json"

let save ~dir (m : t) =
  Fsutil.write_file
    (Filename.concat dir file)
    (Json.to_string (to_json m) ^ "\n")

let load ~dir : (t, string) result =
  let path = Filename.concat dir file in
  if not (Sys.file_exists path) then Error (Fmt.str "no %s in %s" file dir)
  else
    match Metrics.read_lines path with
    | [ line ] -> (
      match Json.of_string_opt line with
      | Some j -> of_json j
      | None -> Error "manifest: not valid JSON")
    | _ -> Error "manifest: expected exactly one JSON line"
