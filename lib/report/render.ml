(* Renderers for each artefact of the paper's evaluation section.  Every
   function returns a string ready to print; bench/main.exe stitches
   them into the full report (see EXPERIMENTS.md for recorded output). *)

module Technique = Ferrum_eddi.Technique
module F = Ferrum_faultsim.Faultsim
module Stats = Ferrum_telemetry.Stats
open Experiments

(* ------------------------------------------------------------------ *)
(* Table I: technique capability matrix.                               *)
(* ------------------------------------------------------------------ *)

let table1 () =
  let header =
    "technique"
    :: List.map Technique.category_name Technique.categories
  in
  let rows =
    List.map
      (fun t ->
        Technique.name t
        :: List.map
             (fun c -> Technique.level_name (Technique.coverage t c))
             Technique.categories)
      Technique.all
  in
  "Table I — FERRUM and baseline techniques (implementation level per \
   instruction category)\n"
  ^ Ascii.table ~header ~rows

(* ------------------------------------------------------------------ *)
(* Table II: benchmark details.                                        *)
(* ------------------------------------------------------------------ *)

let table2 (results : bench_result list) =
  let header = [ "Benchmark"; "Suite"; "Domain"; "Static instrs"; "Dynamic instrs" ] in
  let rows =
    List.map
      (fun b ->
        [ b.name; b.suite; b.domain; string_of_int b.static_raw;
          string_of_int b.dyn_raw ])
      results
  in
  "Table II — details of benchmarks\n" ^ Ascii.table ~header ~rows

(* ------------------------------------------------------------------ *)
(* Figure 10: SDC coverage.                                            *)
(* ------------------------------------------------------------------ *)

let coverage_of b t =
  match (find_tech b t).coverage with Some c -> c | None -> nan

let fig10 (results : bench_result list) =
  let rows =
    List.map
      (fun b ->
        (b.name, List.map (fun t -> coverage_of b t) Technique.all))
      results
    @ [ ("AVERAGE",
         List.map
           (fun t -> mean_over results (fun b -> coverage_of b t))
           Technique.all) ]
  in
  Ascii.grouped_bars
    ~title:
      "Figure 10 — SDC coverage per benchmark (higher is better; paper: \
       FERRUM/Hybrid = 100%, IR-LEVEL-EDDI = 72% avg)"
    ~series_names:(List.map Technique.name Technique.all)
    ~fmt_value:Ascii.percent ~max_value:1.0 rows

(* ------------------------------------------------------------------ *)
(* Figure 11: runtime performance overhead.                            *)
(* ------------------------------------------------------------------ *)

let overhead_of b t = (find_tech b t).overhead

let fig11 (results : bench_result list) =
  let max_value =
    List.fold_left
      (fun acc b ->
        List.fold_left (fun acc t -> max acc (overhead_of b t)) acc
          Technique.all)
      0.0 results
  in
  let rows =
    List.map
      (fun b -> (b.name, List.map (overhead_of b) Technique.all))
      results
    @ [ ("AVERAGE",
         List.map
           (fun t -> mean_over results (fun b -> overhead_of b t))
           Technique.all) ]
  in
  Ascii.grouped_bars
    ~title:
      "Figure 11 — runtime performance overhead per benchmark (lower is \
       better; paper: IR 62.27%, Hybrid 83.39%, FERRUM 29.83%)"
    ~series_names:(List.map Technique.name Technique.all)
    ~fmt_value:Ascii.percent ~max_value rows

(* ------------------------------------------------------------------ *)
(* §IV-B3: time to execute FERRUM.                                     *)
(* ------------------------------------------------------------------ *)

let exec_time (results : bench_result list) =
  let header =
    [ "Benchmark"; "Static instrs (raw)"; "FERRUM transform (ms)";
      "us / instruction" ]
  in
  let rows =
    List.map
      (fun b ->
        let t = find_tech b Technique.Ferrum in
        let ms = t.transform_seconds *. 1e3 in
        [ b.name; string_of_int b.static_raw; Printf.sprintf "%.3f" ms;
          Printf.sprintf "%.2f" (ms *. 1e3 /. float_of_int b.static_raw) ])
      results
  in
  let times =
    List.map
      (fun b -> (find_tech b Technique.Ferrum).transform_seconds)
      results
  in
  let avg = List.fold_left ( +. ) 0.0 times /. float_of_int (List.length times) in
  "Execution time of the FERRUM transform (paper §IV-B3: linear in the \
   static instruction count)\n"
  ^ Ascii.table ~header ~rows
  ^ Printf.sprintf "\naverage %.3f ms; max %.3f ms; min %.3f ms\n"
      (avg *. 1e3)
      (List.fold_left max neg_infinity times *. 1e3)
      (List.fold_left min infinity times *. 1e3)

(* ------------------------------------------------------------------ *)
(* Fault-injection outcome detail (supporting table).                  *)
(* ------------------------------------------------------------------ *)

let outcome_table (results : bench_result list) =
  let header =
    [ "Benchmark"; "Config"; "n"; "benign"; "sdc"; "detected"; "crash";
      "timeout"; "SDC p"; "+/-95%" ]
  in
  let row name config (c : F.counts) =
    [ name; config; string_of_int c.F.samples; string_of_int c.F.benign;
      string_of_int c.F.sdc; string_of_int c.F.detected;
      string_of_int c.F.crash; string_of_int c.F.timeout;
      Printf.sprintf "%.3f" (F.sdc_probability c);
      Printf.sprintf "%.3f" (Stats.half_width (Stats.wilson (F.sdc_tally c))) ]
  in
  let rows =
    List.concat_map
      (fun b ->
        (match b.raw_counts with
        | Some c -> [ row b.name "raw" c ]
        | None -> [])
        @ List.filter_map
            (fun t ->
              match t.counts with
              | Some c ->
                Some (row b.name (Technique.short_name t.technique) c)
              | None -> None)
            b.techniques)
      results
  in
  "Fault-injection outcomes (single bit flip in a destination register \
   of a sampled dynamic instruction)\n"
  ^ Ascii.table ~header ~rows

(* ------------------------------------------------------------------ *)
(* Headline summary vs the paper.                                      *)
(* ------------------------------------------------------------------ *)

let summary (results : bench_result list) =
  let avg_cov t = mean_over results (fun b -> coverage_of b t) in
  let avg_ovh t = mean_over results (fun b -> overhead_of b t) in
  let speedup =
    let ir = avg_ovh Technique.Ir_level_eddi in
    if ir = 0.0 then 0.0 else (ir -. avg_ovh Technique.Ferrum) /. ir
  in
  let header = [ "metric"; "paper"; "this repro" ] in
  let rows =
    [
      [ "IR-LEVEL-EDDI avg SDC coverage"; "72%";
        Ascii.percent (avg_cov Technique.Ir_level_eddi) ];
      [ "HYBRID avg SDC coverage"; "100%";
        Ascii.percent (avg_cov Technique.Hybrid_assembly_eddi) ];
      [ "FERRUM avg SDC coverage"; "100%";
        Ascii.percent (avg_cov Technique.Ferrum) ];
      [ "IR-LEVEL-EDDI avg overhead"; "62.27%";
        Ascii.percent (avg_ovh Technique.Ir_level_eddi) ];
      [ "HYBRID avg overhead"; "83.39%";
        Ascii.percent (avg_ovh Technique.Hybrid_assembly_eddi) ];
      [ "FERRUM avg overhead"; "29.83%";
        Ascii.percent (avg_ovh Technique.Ferrum) ];
      [ "FERRUM speedup over IR-LEVEL-EDDI"; "~52%"; Ascii.percent speedup ];
    ]
  in
  "Headline comparison with the paper\n" ^ Ascii.table ~header ~rows
