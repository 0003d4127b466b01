(* The toolchain layers: IR build or C-lite compile, backend compile,
   protection transforms, lint, load, golden profile, predecode and the
   checkpoint cache -- everything between a source program and a
   campaign-ready target -- and the toolchain workload that loops them. *)

module Catalog = Ferrum_workloads.Catalog
module Pipeline = Ferrum_eddi.Pipeline
module Technique = Ferrum_eddi.Technique
module Machine = Ferrum_machine.Machine
module Prog = Ferrum_asm.Prog
module F = Ferrum_faultsim.Faultsim
open Util

type source = {
  name : string;
  layer : string;  (** span of the front end: ir.build or clite.compile *)
  build : unit -> Ferrum_ir.Ir.modul;
}

(* [None] is the unprotected baseline. *)
let configs = None :: List.map Option.some Technique.all

let config_name = function None -> "raw" | Some t -> Technique.short_name t

let catalogue =
  List.map
    (fun (e : Catalog.entry) ->
      { name = e.Catalog.name; layer = "ir.build"; build = e.Catalog.build })
    Catalog.all

let is_catalogue name = List.exists (fun s -> s.name = name) catalogue

let replace_once ~sub ~by s =
  let n = String.length s and k = String.length sub in
  let rec find i =
    if i + k > n then s
    else if String.sub s i k = sub then
      String.sub s 0 i ^ by ^ String.sub s (i + k) (n - i - k)
    else find (i + 1)
  in
  find 0

(* examples/programs/{matmul,sort}.c with their data seeds rewritten from
   the workload seed: the same code over seeded data. *)
let c_programs ~seed =
  let program file ~sub ~by =
    let text =
      replace_once ~sub ~by
        (Ferrum_campaign.Fsutil.read_file
           (Filename.concat "examples/programs" file))
    in
    { name = file; layer = "clite.compile";
      build = (fun () -> Ferrum_clite.Clite.compile text) }
  in
  let k = 1 + (abs seed mod 1_000_003) in
  [ program "matmul.c" ~sub:"rng = 42;" ~by:(Printf.sprintf "rng = %d;" k);
    program "sort.c" ~sub:"seed = 7;" ~by:(Printf.sprintf "seed = %d;" k) ]

type built = {
  source : string;
  config : string;
  label : string;  (** ["<source>.<config>"] *)
  program : Prog.t;
  target : F.target;
}

(* The warm-up sample's seed.  Fixed rather than drawn from the workload
   seed: one sample's cost depends on the fault it draws (a timeout runs
   to three times the golden length), and a warm-up redone on every
   rebuild would carry that one draw into every pass of a run. *)
let warm_seed = 0L

(* One source through every configuration, each ending campaign-ready:
   predecoded, with the checkpoint cache and pooled slot built by one
   warm-up sample (and the golden lockstep slot too when [vulnmap]), so
   no lazy set-up is left for a timed window.  [lint] adds the static
   verifier, which campaign set-up skips. *)
let build ?tr ~lint ~vulnmap src =
  let m = span tr src.layer src.build in
  let seed = warm_seed in
  List.map
    (fun config ->
      let r =
        match config with
        | None -> span tr "backend.compile" (fun () -> Pipeline.raw m)
        | Some t ->
          span tr ("core.protect." ^ Technique.short_name t) (fun () ->
              Pipeline.protect t m)
      in
      if lint then ignore (span tr "analysis.lint" (fun () -> Pipeline.lint r));
      let program = r.Pipeline.program in
      let img = span tr "machine.load" (fun () -> Machine.load program) in
      let target = span tr "faultsim.prepare" (fun () -> F.prepare img) in
      ignore (span tr "predecode.decode" (fun () -> F.predecoded target));
      span tr "faultsim.warm" (fun () ->
          ignore (F.campaign_sample target ~seed ~sample:0);
          if vulnmap then ignore (F.vulnmap_sample target ~seed ~sample:0));
      let config = config_name config in
      { source = src.name; config; label = src.name ^ "." ^ config; program;
        target })
    configs

(* What a rebuild must reproduce exactly. *)
let fingerprint b =
  let t = b.target in
  Printf.sprintf "%d|%h|%d|%s" t.F.golden_steps t.F.golden_cycles
    (Prog.num_instructions b.program)
    (String.concat "," (List.map Int64.to_string t.F.golden_output))

(* Mean model-cycle overhead of FERRUM over raw across the catalogue
   kernels (the paper reports ~30%), from golden cycles by label. *)
let overhead_pct cycles =
  mean
    (List.map
       (fun s ->
         100.0
         *. F.overhead
              ~raw_cycles:(List.assoc (s.name ^ ".raw") cycles)
              ~prot_cycles:(List.assoc (s.name ^ ".ferrum") cycles))
       catalogue)

let cycles b = (b.label, b.target.F.golden_cycles)

(* The toolchain workload: every catalogue kernel and both C programs
   through every configuration, in a seeded order, pass after pass.  A
   request is one source through all four configurations, timed on the
   reference host ([Util.host_timed]); the first [setups] passes are the
   set-up.  Each source's targets are dropped once checked, so the heap
   holds one source's at a time. *)
let run ~seed ~seconds ~setups =
  let sources = Array.of_list (catalogue @ c_programs ~seed) in
  let order = rng ~seed 1 in
  let expected = Hashtbl.create 64 in
  let overhead = ref None in
  let one src =
    let built, dt = host_timed (fun () -> build ~lint:true ~vulnmap:false src) in
    List.iter
      (fun b ->
        let fp = fingerprint b in
        match Hashtbl.find_opt expected b.label with
        | None -> Hashtbl.add expected b.label fp
        | Some fp0 -> check (fp = fp0) (b.label ^ " rebuilds identically"))
      built;
    (src.name, dt, List.map cycles built)
  in
  let pass () =
    shuffle order sources;
    let results = Array.to_list (Array.map one sources) in
    let ov = overhead_pct (List.concat_map (fun (_, _, c) -> c) results) in
    (match !overhead with
    | None -> overhead := Some ov
    | Some o -> check (Float.equal o ov) "overhead_pct repeats exactly");
    results
  in
  let pass_time results = sum (List.map (fun (_, dt, _) -> dt) results) in
  let setup =
    List.init setups (fun _ ->
        Gc.full_major ();
        pass_time (pass ()))
  in
  let lat = Hashtbl.create 16 and passes = ref [] in
  let deadline = now () +. seconds in
  while !passes = [] || now () < deadline do
    let results = pass () in
    passes := pass_time results :: !passes;
    List.iter
      (fun (name, dt, _) ->
        Hashtbl.replace lat name
          (dt :: Option.value ~default:[] (Hashtbl.find_opt lat name)))
      results
  done;
  let lat = Hashtbl.fold (fun _ l acc -> l :: acc) lat [] in
  let per q = 1000.0 *. geomean (List.map (quantile q) lat) in
  (* Each source's median build time: fixed work, measured many times. *)
  report "items_per_s" "1/s" (float_of_int (Array.length sources) /. sum (List.map median lat));
  report "latency_p50_ms" "ms" (per 0.5);
  report "latency_p90_ms" "ms" (per 0.9);
  report "setup_s" "s" (median (setup @ !passes));
  note "overhead_pct" "%" (Option.value ~default:Float.nan !overhead);
  note "passes" "count" (float_of_int (List.length !passes))
