(* Ablation and extension studies over FERRUM's design choices
   (DESIGN.md E6-E11):

   - E6: disable the SIMD path — every duplicate falls back to the
     GENERAL scheme with immediate checkers, quantifying how much of
     FERRUM's advantage the batched SIMD checking provides;
   - E7: simulated register pressure — cap the spare-register pool so
     the stack-requisition machinery (paper Fig. 7) carries the
     protection, with and without liveness-directed register reuse;
   - E8: all-sites injection — also sample duplicates, checkers and
     instrumentation as fault targets;
   - E9: backend peephole — shrink the lowering glue the paper blames
     for the cross-layer coverage gap;
   - E10: ZMM batching (the paper's §III-B5 future work);
   - E11: multiple-bit upsets (§II-A future work);
   - cost-model sensitivity: the no-overlap model charges protection
     instructions full price. *)

module Technique = Ferrum_eddi.Technique
module Cost = Ferrum_machine.Cost
module Machine = Ferrum_machine.Machine
module Predecode = Ferrum_machine.Predecode
module F = Ferrum_faultsim.Faultsim
module Pipeline = Ferrum_eddi.Pipeline
open Experiments

type variant = {
  label : string;
  description : string;
  ferrum_config : Ferrum_eddi.Ferrum_pass.config;
  cost_model : Cost.model;
}

let baseline_variant =
  {
    label = "ferrum";
    description = "full FERRUM, default cost model";
    ferrum_config = Ferrum_eddi.Ferrum_pass.default_config;
    cost_model = Cost.default;
  }

let variants =
  [
    baseline_variant;
    {
      label = "zmm";
      description = "E10: eight results per batch through ZMM (AVX-512)";
      ferrum_config = Ferrum_eddi.Ferrum_pass.zmm_config;
      cost_model = Cost.default;
    };
    {
      label = "no-simd";
      description = "E6: SIMD batching disabled (GENERAL scheme only)";
      ferrum_config =
        { Ferrum_eddi.Ferrum_pass.default_config with use_simd = false };
      cost_model = Cost.default;
    };
    {
      label = "2-spares";
      description = "E7: only two spare GPRs (pair reserved, requisition)";
      ferrum_config =
        { Ferrum_eddi.Ferrum_pass.default_config with max_spare_gprs = Some 2 };
      cost_model = Cost.default;
    };
    {
      label = "0-spares";
      description = "E7: no spare GPRs at all (full requisition)";
      ferrum_config =
        { Ferrum_eddi.Ferrum_pass.default_config with max_spare_gprs = Some 0 };
      cost_model = Cost.default;
    };
    {
      label = "0-spares+lv";
      description = "E7: no spares, liveness-directed reuse instead of push/pop";
      ferrum_config =
        { Ferrum_eddi.Ferrum_pass.default_config with
          max_spare_gprs = Some 0; use_liveness = true };
      cost_model = Cost.default;
    };
    {
      label = "no-overlap";
      description = "cost-model sensitivity: no superscalar overlap";
      ferrum_config = Ferrum_eddi.Ferrum_pass.default_config;
      cost_model = Cost.no_overlap;
    };
  ]

type row = {
  variant : variant;
  avg_overhead : float;
  avg_coverage : float option;
}

(* Run every FERRUM variant over the suite. *)
let run ?(samples = 150) ?(seed = 77L) () : row list =
  let entries = Ferrum_workloads.Catalog.all in
  List.map
    (fun v ->
      let per_bench =
        List.map
          (fun (e : Ferrum_workloads.Catalog.entry) ->
            let m = e.build () in
            let raw = Pipeline.raw m in
            let raw_img = Machine.load ~cost_model:v.cost_model raw.program in
            let raw_g, raw_t = golden_for ~samples raw_img in
            let prot =
              Pipeline.protect ~ferrum_config:v.ferrum_config Technique.Ferrum
                m
            in
            let img = Machine.load ~cost_model:v.cost_model prot.program in
            let g, t = golden_for ~samples img in
            (match g.Predecode.outcome with
            | Machine.Exit _ -> ()
            | o ->
              Fmt.failwith "ablation %s on %s: %a" v.label e.name
                Machine.pp_outcome o);
            let overhead =
              F.overhead ~raw_cycles:raw_g.Predecode.cycles
                ~prot_cycles:g.Predecode.cycles
            in
            let coverage =
              match (raw_t, t) with
              | Some raw_t, Some t ->
                let raw_c = target_counts ~seed ~samples raw_t in
                let c = target_counts ~seed ~samples t in
                Some (F.sdc_coverage ~raw:raw_c ~protected_:c)
              | _ -> None
            in
            (overhead, coverage))
          entries
      in
      let n = float_of_int (List.length per_bench) in
      let avg_overhead =
        List.fold_left (fun acc (o, _) -> acc +. o) 0.0 per_bench /. n
      in
      let avg_coverage =
        if List.for_all (fun (_, c) -> c <> None) per_bench then
          Some
            (List.fold_left
               (fun acc (_, c) -> acc +. Option.get c)
               0.0 per_bench
            /. n)
        else None
      in
      { variant = v; avg_overhead; avg_coverage })
    variants

let render (rows : row list) =
  let header = [ "variant"; "description"; "avg overhead"; "avg coverage" ] in
  let table_rows =
    List.map
      (fun r ->
        [ r.variant.label; r.variant.description;
          Ascii.percent r.avg_overhead;
          (match r.avg_coverage with
          | Some c -> Ascii.percent c
          | None -> "-") ])
      rows
  in
  "Ablations — FERRUM variants (DESIGN.md E6/E7 + cost-model sensitivity)\n"
  ^ Ascii.table ~header ~rows:table_rows

(* E9: backend peephole optimisation — the paper blames IR-level EDDI's
   coverage loss and the hybrid baseline's overhead on backend-generated
   glue; this re-runs the headline experiment with the store/reload
   peephole enabled so the glue shrinks. *)
let optimized_backend ?(samples = 150) ?(seed = 55L) () =
  let entries = Ferrum_workloads.Catalog.all in
  let header =
    [ "Benchmark"; "backend"; "raw dyn"; "IR-EDDI coverage"; "IR-EDDI ovh";
      "FERRUM ovh" ]
  in
  let rows =
    List.concat_map
      (fun (e : Ferrum_workloads.Catalog.entry) ->
        let m = e.build () in
        List.map
          (fun optimize ->
            let raw_t =
              F.prepare (Machine.load (Pipeline.raw ~optimize m).program)
            in
            let raw_g = golden_of_target raw_t in
            let raw_c = target_counts ~seed ~samples raw_t in
            let ir_t =
              F.prepare
                (Machine.load
                   (Pipeline.protect ~optimize Technique.Ir_level_eddi m)
                     .program)
            in
            let ir_g = golden_of_target ir_t in
            let ir_c = target_counts ~seed ~samples ir_t in
            let fe =
              Machine.load
                (Pipeline.protect ~optimize Technique.Ferrum m).program
            in
            let fe_g = Predecode.golden fe in
            [ e.name; (if optimize then "peephole" else "-O0");
              string_of_int raw_g.Predecode.dyn_instructions;
              Ascii.percent (F.sdc_coverage ~raw:raw_c ~protected_:ir_c);
              Ascii.percent
                (F.overhead ~raw_cycles:raw_g.Predecode.cycles
                   ~prot_cycles:ir_g.Predecode.cycles);
              Ascii.percent
                (F.overhead ~raw_cycles:raw_g.Predecode.cycles
                   ~prot_cycles:fe_g.Predecode.cycles) ])
          [ false; true ])
      entries
  in
  "E9 — backend peephole: less lowering glue vs coverage and overhead\n"
  ^ Ascii.table ~header ~rows

(* E11: multiple-bit upsets (the paper's future work, §II-A): coverage
   of raw vs FERRUM when each fault flips 1..3 bits of the destination. *)
let multibit ?(samples = 150) ?(seed = 123L) () =
  let entries = Ferrum_workloads.Catalog.all in
  let header =
    [ "Benchmark"; "bits"; "raw SDC p"; "FERRUM sdc"; "FERRUM coverage" ]
  in
  let rows =
    List.concat_map
      (fun (e : Ferrum_workloads.Catalog.entry) ->
        let m = e.build () in
        let raw_img = Machine.load (Pipeline.raw m).program in
        let prot = Pipeline.protect Technique.Ferrum m in
        let img = Machine.load prot.program in
        List.map
          (fun bits ->
            let raw_c =
              campaign_counts ~seed ~samples ~fault_bits:bits raw_img
            in
            let c = campaign_counts ~seed ~samples ~fault_bits:bits img in
            [ e.name; string_of_int bits;
              Printf.sprintf "%.3f" (F.sdc_probability raw_c);
              string_of_int c.F.sdc;
              Ascii.percent (F.sdc_coverage ~raw:raw_c ~protected_:c) ])
          [ 1; 2; 3 ])
      entries
  in
  "E11 — multiple-bit upsets: FERRUM coverage under 1-3 bit flips per fault\n"
  ^ Ascii.table ~header ~rows

(* E8: coverage when instrumentation itself is an injection target. *)
let all_sites ?(samples = 150) ?(seed = 99L) () =
  let entries = Ferrum_workloads.Catalog.all in
  let header = [ "Benchmark"; "scope"; "sdc"; "detected"; "crash"; "coverage" ] in
  let rows =
    List.concat_map
      (fun (e : Ferrum_workloads.Catalog.entry) ->
        let m = e.build () in
        let raw_img = Machine.load (Pipeline.raw m).program in
        let prot = Pipeline.protect Technique.Ferrum m in
        let img = Machine.load prot.program in
        List.map
          (fun (scope, scope_name) ->
            let raw_c = campaign_counts ~scope ~seed ~samples raw_img in
            let c = campaign_counts ~scope ~seed ~samples img in
            [ e.name; scope_name; string_of_int c.F.sdc;
              string_of_int c.F.detected; string_of_int c.F.crash;
              Ascii.percent (F.sdc_coverage ~raw:raw_c ~protected_:c) ])
          [ (F.Original_only, "original"); (F.All_sites, "all-sites") ])
      entries
  in
  "E8 — FERRUM coverage when protection instructions are also injection \
   sites\n"
  ^ Ascii.table ~header ~rows
