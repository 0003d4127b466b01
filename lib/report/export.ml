(* Machine-readable export of experiment results (CSV), so the recorded
   runs can be post-processed outside OCaml (spreadsheets, plotting). *)

module F = Ferrum_faultsim.Faultsim
module Technique = Ferrum_eddi.Technique
open Experiments

let escape s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let row cells = String.concat "," (List.map escape cells) ^ "\n"

let counts_cells = function
  | Some (c : F.counts) ->
    [ string_of_int c.F.samples; string_of_int c.F.benign;
      string_of_int c.F.sdc; string_of_int c.F.detected;
      string_of_int c.F.crash; string_of_int c.F.timeout ]
  | None -> [ ""; ""; ""; ""; ""; "" ]

(* One line per (benchmark, configuration), raw included. *)
let csv (results : bench_result list) : string =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (row
       [ "benchmark"; "suite"; "domain"; "config"; "static_instructions";
         "dynamic_instructions"; "cycles"; "overhead"; "dyn_overhead";
         "coverage"; "transform_seconds"; "samples"; "benign"; "sdc";
         "detected"; "crash"; "timeout" ]);
  List.iter
    (fun (b : bench_result) ->
      Buffer.add_string buf
        (row
           ([ b.name; b.suite; b.domain; "raw"; string_of_int b.static_raw;
              string_of_int b.dyn_raw; Printf.sprintf "%.1f" b.cycles_raw;
              "0"; "0"; ""; "0" ]
           @ counts_cells b.raw_counts));
      List.iter
        (fun (t : tech_result) ->
          Buffer.add_string buf
            (row
               ([ b.name; b.suite; b.domain;
                  Technique.short_name t.technique;
                  string_of_int t.static_instructions;
                  string_of_int t.dyn_instructions;
                  Printf.sprintf "%.1f" t.cycles;
                  Printf.sprintf "%.6f" t.overhead;
                  Printf.sprintf "%.6f" t.dyn_overhead;
                  (match t.coverage with
                  | Some c -> Printf.sprintf "%.6f" c
                  | None -> "");
                  Printf.sprintf "%.6f" t.transform_seconds ]
               @ counts_cells t.counts)))
        b.techniques)
    results;
  Buffer.contents buf

let write_csv path results =
  let oc = open_out path in
  output_string oc (csv results);
  close_out oc

(* ------------------------------------------------------------------ *)
(* Machine-readable metrics JSON (bench --metrics).                    *)
(* ------------------------------------------------------------------ *)

module Json = Ferrum_telemetry.Json

let json_of_counts = function
  | Some (c : F.counts) ->
    Json.Obj
      [ ("samples", Json.Int c.F.samples); ("benign", Json.Int c.F.benign);
        ("sdc", Json.Int c.F.sdc); ("detected", Json.Int c.F.detected);
        ("crash", Json.Int c.F.crash); ("timeout", Json.Int c.F.timeout) ]
  | None -> Json.Null

let json_of_tech (t : tech_result) =
  Json.Obj
    [ ("config", Json.Str (Technique.short_name t.technique));
      ("static_instructions", Json.Int t.static_instructions);
      ("dynamic_instructions", Json.Int t.dyn_instructions);
      ("cycles", Json.Float t.cycles);
      ("overhead", Json.Float t.overhead);
      ("dyn_overhead", Json.Float t.dyn_overhead);
      ("coverage",
       match t.coverage with Some c -> Json.Float c | None -> Json.Null);
      ("transform_seconds", Json.Float t.transform_seconds);
      ("counts", json_of_counts t.counts) ]

let json_of_bench (b : bench_result) =
  Json.Obj
    [ ("benchmark", Json.Str b.name); ("suite", Json.Str b.suite);
      ("domain", Json.Str b.domain);
      ("raw",
       Json.Obj
         [ ("static_instructions", Json.Int b.static_raw);
           ("dynamic_instructions", Json.Int b.dyn_raw);
           ("cycles", Json.Float b.cycles_raw);
           ("counts", json_of_counts b.raw_counts) ]);
      ("techniques", Json.Arr (List.map json_of_tech b.techniques)) ]

(* Flat-vs-adaptive allocation comparison over one benchmark: mean
   Wilson 95% half-width on the worst decile of vulnerability-map
   sites under the same total budget, and the implied sample savings
   (half-width scales as 1/sqrt(n), so matching the adaptive width
   with flat sampling would cost a factor (flat/adaptive)^2 more
   samples). *)
type adaptive_result = {
  a_benchmark : string;
  a_budget : int;
  a_rounds : int;
  a_sites : int;  (** candidate static sites *)
  a_decile : int;  (** worst-decile size *)
  a_flat_n : float;  (** mean samples per worst-decile site, flat *)
  a_adaptive_n : float;
  a_flat_hw : float;  (** mean Wilson half-width over the decile *)
  a_adaptive_hw : float;
  a_flat_wall : float;
  a_adaptive_wall : float;
}

let adaptive_savings (a : adaptive_result) =
  if a.a_flat_hw <= 0.0 then 0.0
  else 1.0 -. ((a.a_adaptive_hw /. a.a_flat_hw) ** 2.0)

let json_of_adaptive (a : adaptive_result) =
  Json.Obj
    [ ("benchmark", Json.Str a.a_benchmark);
      ("budget", Json.Int a.a_budget);
      ("rounds", Json.Int a.a_rounds);
      ("sites", Json.Int a.a_sites);
      ("worst_decile_sites", Json.Int a.a_decile);
      ("flat_decile_samples", Json.Float a.a_flat_n);
      ("adaptive_decile_samples", Json.Float a.a_adaptive_n);
      ("flat_decile_half_width", Json.Float a.a_flat_hw);
      ("adaptive_decile_half_width", Json.Float a.a_adaptive_hw);
      ("sample_savings", Json.Float (adaptive_savings a));
      ("flat_wall_seconds", Json.Float a.a_flat_wall);
      ("adaptive_wall_seconds", Json.Float a.a_adaptive_wall) ]

(* One benchmark's injection-engine throughput snapshot: samples/sec
   per engine configuration. *)
type perf_result = {
  p_benchmark : string;
  p_scratch : float;
  p_pooled : float;
  p_predecoded : float; (* ckpt-4096 *)
}

let json_of_perf (p : perf_result) =
  Json.Obj
    [ ("benchmark", Json.Str p.p_benchmark);
      ("scratch_sps", Json.Float p.p_scratch);
      ("pooled_sps", Json.Float p.p_pooled);
      ("predecoded_ckpt_sps", Json.Float p.p_predecoded) ]

(* Full bench metrics document: meta (sample counts, seed), one entry
   per timed experiment (name + wall seconds — wall clock is confined
   here, the per-benchmark results are deterministic per seed), the
   per-benchmark results themselves, and the flat-vs-adaptive
   allocation comparison and per-engine throughput when they ran. *)
let bench_kind = "ferrum.bench.v1"

let metrics_json ?(adaptive = []) ?(perf = []) ~samples ~seed ~experiments
    (results : bench_result list) =
  Json.Obj
    ([ ("schema", Json.Str bench_kind);
       ("version", Json.Int Ferrum_telemetry.Metrics.schema_version);
       ("samples", Json.Int samples);
       ("seed", Json.Str (Int64.to_string seed));
       ("experiments",
        Json.Arr
          (List.map
             (fun (name, wall_seconds) ->
               Json.Obj
                 [ ("name", Json.Str name);
                   ("wall_seconds", Json.Float wall_seconds) ])
             experiments));
       ("results", Json.Arr (List.map json_of_bench results)) ]
    @ (match adaptive with
      | [] -> []
      | l -> [ ("adaptive", Json.Arr (List.map json_of_adaptive l)) ])
    @
    match perf with
    | [] -> []
    | l -> [ ("perf", Json.Arr (List.map json_of_perf l)) ])

let write_metrics_json ?adaptive ?perf path ~samples ~seed ~experiments
    results =
  let oc = open_out path in
  output_string oc
    (Json.to_string
       (metrics_json ?adaptive ?perf ~samples ~seed ~experiments results));
  output_char oc '\n';
  close_out oc
