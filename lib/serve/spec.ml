(* Campaign job specs for the serve daemon.

   A spec is the POST /jobs body: the campaign configuration in
   canonical JSON, mirroring the `ferrum campaign` flags.  [resolve]
   turns a spec into the same (program, target, manifest) triple the
   CLI builds, so a served job is bit-identical to the equivalent
   command-line campaign — and therefore shares its manifest digest
   with it in the content-addressed run store. *)

module F = Ferrum_faultsim.Faultsim
module Machine = Ferrum_machine.Machine
module Technique = Ferrum_eddi.Technique
module Pipeline = Ferrum_eddi.Pipeline
module Catalog = Ferrum_workloads.Catalog
module Json = Ferrum_telemetry.Json
module Manifest = Ferrum_campaign.Manifest

type t = {
  benchmark : string;
  technique : string;  (** "raw" or a {!Technique.short_name} *)
  samples : int;
  seed : int64;
  shards : int;
  fault_bits : int;
  scope : string;  (** "original" | "all-sites" *)
  traced : bool;
  engine : string;  (** {!F.engine_name} form *)
}

(* Canonical rendering: fixed key order, so the queue's stored spec
   strings are stable and comparable. *)
let to_json (s : t) : Json.t =
  Json.Obj
    [
      ("benchmark", Json.Str s.benchmark);
      ("technique", Json.Str s.technique);
      ("samples", Json.Int s.samples);
      ("seed", Json.Str (Int64.to_string s.seed));
      ("shards", Json.Int s.shards);
      ("fault_bits", Json.Int s.fault_bits);
      ("scope", Json.Str s.scope);
      ("traced", Json.Int (if s.traced then 1 else 0));
      ("engine", Json.Str s.engine);
    ]

let to_string s = Json.to_string (to_json s)

let ( let* ) = Result.bind

(* Submission-side defaults match the `ferrum campaign` flag defaults;
   only [benchmark] is required. *)
let of_json (j : Json.t) : (t, string) result =
  let str name default =
    match Json.member name j with
    | Some (Json.Str v) -> Ok v
    | None -> (
      match default with
      | Some d -> Ok d
      | None -> Error (Fmt.str "spec: missing field %S" name))
    | Some _ -> Error (Fmt.str "spec: field %S must be a string" name)
  in
  let int name default =
    match Json.member name j with
    | Some (Json.Int v) -> Ok v
    | None -> Ok default
    | Some _ -> Error (Fmt.str "spec: field %S must be an integer" name)
  in
  let* benchmark = str "benchmark" None in
  let* technique = str "technique" (Some "raw") in
  let* samples = int "samples" 400 in
  let* seed_s = str "seed" (Some "2024") in
  let* seed =
    match Int64.of_string_opt seed_s with
    | Some v -> Ok v
    | None -> Error (Fmt.str "spec: bad seed %S" seed_s)
  in
  let* shards = int "shards" 4 in
  let* fault_bits = int "fault_bits" 1 in
  let* scope = str "scope" (Some "original") in
  let* traced = int "traced" 1 in
  let* engine = str "engine" (Some (F.engine_name F.default_engine)) in
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
    }

let of_string s =
  match Json.of_string_opt s with
  | None -> Error "spec: not JSON"
  | Some j -> of_json j

(* Everything [resolve] needs to run the campaign. *)
type resolved = {
  spec : t;  (** normalised: re-serialising gives the canonical form *)
  program : Ferrum_asm.Prog.t;
  target : F.target;
  manifest : Manifest.t;
}

(* A built workload: what [resolve] computes from the spec fields in
   {!key} alone.  The rest of a spec only picks the campaign run over
   it, so every seed/samples/shards/traced variant shares it. *)
type workload = {
  program : Ferrum_asm.Prog.t;
  target : F.target;
  facts : Manifest.workload;
}

type key = string * string * string * string

let key (s : t) : key = (s.benchmark, s.technique, s.scope, s.engine)

type memo = (key, workload) Lru.t

let memo ~capacity : memo = Lru.create ~capacity
let memo_hits = Lru.hits
let memo_misses = Lru.misses

(* Validate a spec against the catalogue, then get its workload from
   [find] — which builds it (benchmark IR, protect or not, load,
   prepare the injection target: one golden walk) or returns a built
   one — and derive the manifest.  This mirrors the CLI campaign path
   with default transform knobs.  A spec's own fields are all checked
   before [find] runs, so nothing is built for a spec that fails. *)
let resolve_via find (s : t) : (resolved, string) result =
  let* entry =
    match Catalog.find s.benchmark with
    | Some e -> Ok e
    | None ->
      Error
        (Fmt.str "unknown benchmark %S; try: %s" s.benchmark
           (String.concat ", " Catalog.names))
  in
  let* technique =
    if s.technique = "raw" then Ok None
    else
      match Technique.of_short_name s.technique with
      | Some t -> Ok (Some t)
      | None ->
        Error
          (Fmt.str "unknown technique %S; expected raw, ir-eddi, hybrid \
                    or ferrum" s.technique)
  in
  let* all_sites =
    match s.scope with
    | "original" -> Ok false
    | "all-sites" -> Ok true
    | other -> Error (Fmt.str "unknown scope %S" other)
  in
  let* engine =
    match F.engine_of_name s.engine with
    | Some e -> Ok e
    | None -> Error (Fmt.str "unknown engine %S" s.engine)
  in
  let* () = if s.samples >= 1 then Ok () else Error "samples must be >= 1" in
  let* () =
    if s.shards >= 1 && s.shards <= s.samples then Ok ()
    else Error "shards must be >= 1 and <= samples"
  in
  let* () =
    if s.fault_bits >= 1 then Ok () else Error "fault_bits must be >= 1"
  in
  let build () =
    let m = entry.Catalog.build () in
    let program =
      match technique with
      | None -> (Pipeline.raw m).Pipeline.program
      | Some t -> (Pipeline.protect t m).Pipeline.program
    in
    let img = Machine.load program in
    let scope = if all_sites then F.All_sites else F.Original_only in
    match F.prepare ~scope ~engine img with
    | target ->
      Ok { program; target; facts = Manifest.workload ~program target }
    | exception Invalid_argument msg -> Error msg
  in
  let* w = find s build in
  let manifest =
    Manifest.of_workload ~benchmark:s.benchmark ~technique:s.technique
      ~samples:s.samples ~seed:s.seed ~shards:s.shards
      ~fault_bits:s.fault_bits ~all_sites ~traced:s.traced w.facts
  in
  Ok { spec = s; program = w.program; target = w.target; manifest }

let resolve = resolve_via (fun _ build -> build ())
let resolve_memo (m : memo) = resolve_via (fun s -> Lru.find_or_add m (key s))
