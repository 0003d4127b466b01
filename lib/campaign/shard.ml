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
(* Per-sample shard output and its wire line.                          *)
(* ------------------------------------------------------------------ *)

(* Everything the merge step needs from one sample: the serialized
   record line, plus the aggregation inputs of the traced (vulnmap)
   variant. *)
type sample_out = {
  o_sample : int;
  o_class : F.classification;
  o_static : int;  (** static site, -1 when unreached *)
  o_record : string;  (** serialized record JSON (one line) *)
  o_latency : (int * float) option;  (** Detected runs only *)
  o_escape : Propagation.escape option;  (** Sdc runs only *)
  o_steps : int;  (** logical-clock contribution (injected-run steps) *)
}

(* A sample's wire payload (the runner frames it under the tag ["s"]):
   eight tab-separated fields — sample, class, static site, steps,
   detection-latency steps (-1 without a latency), the latency's cycles
   as the 16 hex digits of their IEEE-754 bits (empty without), escape
   name (empty without) and the record JSON, written verbatim as the
   last field.  The latency cycles are a float the parent re-sums in
   global order, so they cross as their exact bit pattern: a decimal
   rendering could lose the low bits that byte-identity across shard
   counts depends on.  JSON escapes every tab and newline inside a
   string, so the record holds neither. *)
let add_hex64 buf bits =
  for i = 15 downto 0 do
    let d = Int64.to_int (Int64.shift_right_logical bits (4 * i)) land 15 in
    Buffer.add_char buf (Char.unsafe_chr (if d < 10 then 48 + d else 87 + d))
  done

let tab buf = Buffer.add_char buf '\t'

let write_sample buf (r : F.record) ~latency ~escape =
  Json.add_int buf r.F.sample;
  tab buf;
  Buffer.add_string buf (F.classification_name r.F.r_class);
  tab buf;
  Json.add_int buf r.F.r_static_index;
  tab buf;
  Json.add_int buf r.F.steps;
  tab buf;
  (match latency with
  | Some (steps, _) -> Json.add_int buf steps
  | None -> Json.add_int buf (-1));
  tab buf;
  (match latency with
  | Some (_, cycles) -> add_hex64 buf (Int64.bits_of_float cycles)
  | None -> ());
  tab buf;
  (match escape with
  | Some e -> Buffer.add_string buf (Propagation.escape_name e)
  | None -> ());
  tab buf;
  F.write_record buf r

let ( let* ) = Result.bind

let int_field name s =
  match int_of_string_opt s with
  | Some i when s <> "" && (s.[0] = '-' || (s.[0] >= '0' && s.[0] <= '9')) ->
    Ok i
  | _ -> Error (Fmt.str "sample line: bad %s %S" name s)

let read_sample line : (sample_out, string) result =
  match String.split_on_char '\t' line with
  | [ sample; cls; static; steps; lat_steps; lat_bits; esc; o_record ] ->
    let* o_sample = int_field "sample" sample in
    let* o_class =
      match F.classification_of_name cls with
      | Some c -> Ok c
      | None -> Error (Fmt.str "sample line: unknown class %S" cls)
    in
    let* o_static = int_field "static site" static in
    let* o_steps = int_field "steps" steps in
    let* lat_steps = int_field "latency steps" lat_steps in
    let* o_latency =
      if lat_steps < 0 then
        if lat_bits = "" then Ok None
        else Error "sample line: latency bits without a latency"
      else
        match
          if String.length lat_bits = 16 then
            Int64.of_string_opt ("0x" ^ lat_bits)
          else None
        with
        | Some bits -> Ok (Some (lat_steps, Int64.float_of_bits bits))
        | None -> Error (Fmt.str "sample line: bad latency bits %S" lat_bits)
    in
    let* o_escape =
      if esc = "" then Ok None
      else
        match Propagation.escape_of_name esc with
        | Some e -> Ok (Some e)
        | None -> Error (Fmt.str "sample line: unknown escape %S" esc)
    in
    (* the record must be whole and be this sample's *)
    let head = "{\"sample\":" ^ string_of_int o_sample ^ "," in
    let n = String.length o_record in
    if
      n <= String.length head
      || (not (String.starts_with ~prefix:head o_record))
      || o_record.[n - 1] <> '}'
    then Error "sample line: truncated or foreign record"
    else
      Ok { o_sample; o_class; o_static; o_record; o_latency; o_escape; o_steps }
  | _ -> Error "sample line: not eight tab-separated fields"

(* ------------------------------------------------------------------ *)
(* Running a range.                                                    *)
(* ------------------------------------------------------------------ *)

(* Run one shard's samples, window by window ({!F.run_window}: in flip
   order off a golden cursor), handing each sample's class, steps and
   wire payload ({!write_sample}) to [on_sample] in index order.  [traced]
   adds the vulnmap inputs (latency, escape) to the lines; the record
   stream is identical either way.  [assign] maps a global sample index
   to the static site the adaptive allocator aimed it at (negative =
   uniform, the default and the whole story for flat campaigns). *)
let run_range ?(fault_bits = 1) ?(assign = fun _ -> -1) ~traced ~seed
    (t : F.target) (r : range) ~on_sample =
  let lo = ref r.lo in
  while !lo < r.hi do
    let n = min F.window_size (r.hi - !lo) in
    F.run_window ~fault_bits ~traced ~site:assign t ~seed ~lo:!lo ~n
      ~render:write_sample ~emit:on_sample;
    lo := !lo + n
  done
