(* Deterministic campaign sharding.

   A shard is a contiguous range of global sample indices.  Because the
   per-sample RNG is a pure function of the campaign seed and the global
   index (Rng.split_at, via Faultsim.campaign_sample), a shard can run
   anywhere — another process, another machine, a resumed run — and the
   concatenation of shard outputs in index order is byte-identical for
   any shard count.  [run_range] is the one loop over a campaign's
   samples. *)

module F = Ferrum_faultsim.Faultsim
module Propagation = Ferrum_telemetry.Propagation
module Json = Ferrum_telemetry.Json

type range = { lo : int; hi : int }

let range_samples r = r.hi - r.lo

(* Near-equal contiguous split: the first [samples mod k] shards get one
   extra sample.  Shard count is clamped to [1, samples]. *)
let plan ~shards ~samples =
  if samples <= 0 then [||]
  else begin
    let k = max 1 (min shards samples) in
    let base = samples / k and extra = samples mod k in
    let ranges = Array.make k { lo = 0; hi = 0 } in
    let lo = ref 0 in
    for i = 0 to k - 1 do
      let n = base + if i < extra then 1 else 0 in
      ranges.(i) <- { lo = !lo; hi = !lo + n };
      lo := !lo + n
    done;
    ranges
  end

(* ------------------------------------------------------------------ *)
(* Per-sample shard output.                                            *)
(* ------------------------------------------------------------------ *)

(* Everything the merge step needs from one sample: the already
   serialized record line, plus the aggregation inputs of the traced
   (vulnmap) variant.  The detection-latency cycle value is a float the
   parent must re-sum in global order, so it crosses the worker pipe as
   its exact IEEE-754 bit pattern — a decimal rendering could lose the
   low bits that byte-identity across shard counts depends on. *)
type sample_out = {
  o_sample : int;
  o_class : F.classification;
  o_static : int;  (** static site, -1 when unreached *)
  o_record : string;  (** serialized record JSON (one line) *)
  o_latency : (int * float) option;  (** Detected runs only *)
  o_escape : Propagation.escape option;  (** Sdc runs only *)
  o_steps : int;  (** logical-clock contribution (injected-run steps) *)
}

let sample_out_to_json (o : sample_out) : Json.t =
  let lat_steps, lat_bits =
    match o.o_latency with
    | Some (s, c) -> (s, Int64.to_string (Int64.bits_of_float c))
    | None -> (-1, "")
  in
  Json.Obj
    [
      ("sample", Json.Int o.o_sample);
      ("class", Json.Str (F.classification_name o.o_class));
      ("static", Json.Int o.o_static);
      ("record", Json.Str o.o_record);
      ("lat_steps", Json.Int lat_steps);
      ("lat_cycles_bits", Json.Str lat_bits);
      ( "escape",
        Json.Str
          (match o.o_escape with
          | Some e -> Propagation.escape_name e
          | None -> "") );
      ("steps", Json.Int o.o_steps);
    ]

let ( let* ) = Result.bind

let sample_out_of_json (j : Json.t) : (sample_out, string) result =
  let* o_sample = Json.int "sample" j in
  let* cls = Json.str "class" j in
  let* o_class =
    match F.classification_of_name cls with
    | Some c -> Ok c
    | None -> Error (Fmt.str "sample_out: unknown class %S" cls)
  in
  let* o_static = Json.int "static" j in
  let* o_record = Json.str "record" j in
  let* lat_steps = Json.int "lat_steps" j in
  let* lat_bits = Json.str "lat_cycles_bits" j in
  let* o_latency =
    if lat_steps < 0 then Ok None
    else
      match Int64.of_string_opt lat_bits with
      | Some bits -> Ok (Some (lat_steps, Int64.float_of_bits bits))
      | None -> Error "sample_out: bad lat_cycles_bits"
  in
  let* esc = Json.str "escape" j in
  let* o_escape =
    if esc = "" then Ok None
    else
      match Propagation.escape_of_name esc with
      | Some e -> Ok (Some e)
      | None -> Error (Fmt.str "sample_out: unknown escape %S" esc)
  in
  let* o_steps = Json.int "steps" j in
  Ok { o_sample; o_class; o_static; o_record; o_latency; o_escape; o_steps }

(* ------------------------------------------------------------------ *)
(* Running a range.                                                    *)
(* ------------------------------------------------------------------ *)

(* Run one shard's samples in index order.  [traced] selects the
   lockstep-traced variant (vulnmap campaigns); the record stream is
   identical either way.  [assign] maps a global sample index to the
   static site the adaptive allocator aimed it at (negative = uniform,
   the default and the whole story for flat campaigns). *)
let run_range ?(fault_bits = 1) ?(assign = fun _ -> -1) ~traced ~seed
    (t : F.target) (r : range) ~on_sample =
  for sample = r.lo to r.hi - 1 do
    let site = assign sample in
    let out =
      if traced then begin
        let cls, fault, record, summary =
          F.vulnmap_sample ~fault_bits ~site t ~seed ~sample
        in
        let latency =
          if cls = F.Detected then Propagation.detection_latency summary
          else None
        in
        let escape =
          if cls = F.Sdc then Some (Propagation.explain_escape summary)
          else None
        in
        {
          o_sample = sample;
          o_class = cls;
          o_static = fault.F.static_index;
          o_record = Json.to_string (F.record_to_json record);
          o_latency = latency;
          o_escape = escape;
          o_steps = record.F.steps;
        }
      end
      else begin
        let cls, fault, record =
          F.campaign_sample ~fault_bits ~site t ~seed ~sample
        in
        {
          o_sample = sample;
          o_class = cls;
          o_static = fault.F.static_index;
          o_record = Json.to_string (F.record_to_json record);
          o_latency = None;
          o_escape = None;
          o_steps = record.F.steps;
        }
      end
    in
    on_sample out
  done
