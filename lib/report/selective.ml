(* Selective protection (experiment E12).

   The paper's related work (SDCTune [9], the authors' own selective-
   duplication study [13]) trades coverage for overhead by protecting
   only the most SDC-prone instructions.  This module reproduces that
   study on top of FERRUM: a profiling campaign on the unprotected
   binary attributes observed SDCs to the static instructions whose
   write-backs were faulted; instructions are then ranked by their SDC
   contribution and FERRUM protects just enough of them to cover a given
   budget (fraction of observed SDC mass).  Evaluation uses a different
   seed than profiling, so the selection must generalise. *)

module Machine = Ferrum_machine.Machine
module Predecode = Ferrum_machine.Predecode
module F = Ferrum_faultsim.Faultsim
module Technique = Ferrum_eddi.Technique
module Pipeline = Ferrum_eddi.Pipeline
module Ferrum_pass = Ferrum_eddi.Ferrum_pass
module Runner = Ferrum_campaign.Runner
module Json = Ferrum_telemetry.Json
open Ferrum_asm

(* Map flattened static instruction index -> (block label, index within
   block), replicating the loader's flatten order. *)
let site_table (p : Prog.t) : (string * int) array =
  let out = ref [] in
  List.iter
    (fun (f : Prog.func) ->
      List.iter
        (fun (b : Prog.block) ->
          List.iteri (fun i _ -> out := (b.label, i) :: !out) b.insns)
        f.blocks)
    p.funcs;
  Array.of_list (List.rev !out)

(* Per-static-site SDC counts from a profiling campaign on the raw
   program. *)
let profile ~samples ~seed (img : Machine.image) =
  let res =
    Runner.run ~mode:Runner.Inject ~shards:1 ~seed ~samples (F.prepare img)
  in
  let counts = Hashtbl.create 64 in
  List.iter
    (fun line ->
      let j = Json.of_string line in
      match (Json.str "class" j, Json.int "static_index" j) with
      | Ok "sdc", Ok ix when ix >= 0 ->
        Hashtbl.replace counts ix
          (1 + Option.value ~default:0 (Hashtbl.find_opt counts ix))
      | _ -> ())
    res.Runner.record_lines;
  (counts, res.Runner.counts)

(* The smallest set of static sites covering [budget] of the observed
   SDC mass, as a (label, index) selector.  Sites are ranked by SDC
   count, ties by static index, so the set does not depend on the
   table's insertion order. *)
let select_sites (p : Prog.t) counts ~budget =
  let table = site_table p in
  let ranked =
    Hashtbl.fold (fun idx n acc -> (idx, n) :: acc) counts []
    |> List.sort (fun (i, a) (j, b) ->
           if a <> b then compare b a else compare i j)
  in
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 ranked in
  let want = int_of_float (ceil (budget *. float_of_int total)) in
  let selected = Hashtbl.create 64 in
  let rec take acc = function
    | [] -> ()
    | (idx, n) :: rest ->
      if acc >= want then ()
      else begin
        Hashtbl.replace selected table.(idx) ();
        take (acc + n) rest
      end
  in
  take 0 ranked;
  (selected, Hashtbl.length selected)

(* One benchmark, one budget: protect the selection, measure overhead
   and coverage with an independent evaluation seed. *)
type point = {
  budget : float;
  sites_protected : int;
  overhead : float;
  coverage : float;
}

let run_benchmark ?(samples = 300) ?(profile_seed = 404L) ?(eval_seed = 505L)
    (m : Ferrum_ir.Ir.modul) : point list =
  let raw = Pipeline.raw m in
  let raw_img = Machine.load raw.program in
  let raw_golden = Predecode.golden raw_img in
  let counts, _ = profile ~samples ~seed:profile_seed raw_img in
  let eval_raw = Experiments.campaign_counts ~seed:eval_seed ~samples raw_img in
  List.map
    (fun budget ->
      let config, sites_protected =
        if budget >= 2.0 then (Ferrum_pass.default_config, -1)
        else
          let selected, n = select_sites raw.program counts ~budget in
          ( { Ferrum_pass.default_config with
              select = Some (fun label i -> Hashtbl.mem selected (label, i)) },
            n )
      in
      let prot = Pipeline.protect ~ferrum_config:config Technique.Ferrum m in
      let img = Machine.load prot.program in
      let golden = Predecode.golden img in
      let eval = Experiments.campaign_counts ~seed:eval_seed ~samples img in
      {
        budget;
        sites_protected;
        overhead =
          F.overhead ~raw_cycles:raw_golden.Predecode.cycles
            ~prot_cycles:golden.Predecode.cycles;
        coverage = F.sdc_coverage ~raw:eval_raw ~protected_:eval;
      })
    [ 0.25; 0.5; 0.75; 0.9; 1.0; 2.0 (* 2.0 = full FERRUM *) ]

let render ?(samples = 300) () =
  let header =
    [ "Benchmark"; "budget"; "sites"; "overhead"; "coverage (eval seed)" ]
  in
  let rows =
    List.concat_map
      (fun (e : Ferrum_workloads.Catalog.entry) ->
        let points = run_benchmark ~samples (e.build ()) in
        List.map
          (fun (pt : point) ->
            [ e.name;
              (if pt.budget >= 2.0 then "full"
               else Printf.sprintf "%.0f%%" (100.0 *. pt.budget));
              (if pt.sites_protected < 0 then "all"
               else string_of_int pt.sites_protected);
              Ascii.percent pt.overhead; Ascii.percent pt.coverage ])
          points)
      Ferrum_workloads.Catalog.all
  in
  "E12 — selective FERRUM (SDCTune-style): protect the static sites \
   covering a budget of profiled SDC mass\n"
  ^ Ascii.table ~header ~rows
