(* Annotated-assembly rendering of a per-site vulnerability map.

   One line per static instruction — provenance, the instruction text,
   and (when the site was sampled) its outcome distribution and mean
   detection latency — followed by a campaign summary: totals, the
   detection-latency distribution, the most vulnerable sites and the
   escape explanations of every SDC.  This is the paper's "fast" claim
   turned into a listing you can read line by line: which sites the
   protection covers, how quickly their faults are caught, and where the
   silent escapes live. *)

open Ferrum_asm
module F = Ferrum_faultsim.Faultsim
module Propagation = Ferrum_telemetry.Propagation
module Stats = Ferrum_telemetry.Stats

(* Wilson 95% half-width of a site's SDC rate. *)
let site_hw (c : F.counts) =
  Stats.half_width (Stats.wilson { Stats.n = c.F.samples; k = c.F.sdc })

let prov_tag = function
  | Instr.Original -> "original"
  | Instr.Dup -> "dup"
  | Instr.Check -> "check"
  | Instr.Instrumentation -> "instr"

(* Percentile over detected-run latencies (nearest-rank on the sorted
   list); [None] on empty input. *)
let percentile xs p =
  match List.sort compare xs with
  | [] -> None
  | sorted ->
    let n = List.length sorted in
    let rank =
      min (n - 1) (int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1)
    in
    Some (List.nth sorted (max 0 rank))

type latency_stats = {
  detected : int;
  mean_steps : float;
  p50_steps : int;
  p95_steps : int;
  max_steps : int;
  mean_cycles : float;
}

(* Distribution of detection latencies over a campaign's detected runs;
   [None] when nothing was detected. *)
let latency_stats (v : F.vulnmap) =
  match v.F.v_latencies with
  | [] -> None
  | lats ->
    let steps = List.map fst lats in
    let n = float_of_int (List.length lats) in
    let sum_steps = List.fold_left ( + ) 0 steps in
    let sum_cycles = List.fold_left (fun a (_, c) -> a +. c) 0.0 lats in
    Some
      {
        detected = List.length lats;
        mean_steps = float_of_int sum_steps /. n;
        p50_steps = Option.value ~default:0 (percentile steps 50.0);
        p95_steps = Option.value ~default:0 (percentile steps 95.0);
        max_steps = List.fold_left max 0 steps;
        mean_cycles = sum_cycles /. n;
      }

let listing ?(only_sampled = false) (v : F.vulnmap) =
  let buf = Buffer.create 4096 in
  let code = v.F.v_target.F.img.Ferrum_machine.Machine.code in
  Buffer.add_string buf
    (Fmt.str "%5s  %-9s %-44s %5s %5s %4s %4s %5s %4s %9s %8s@." "idx"
       "prov" "instruction" "n" "ben" "sdc" "det" "crash" "t/o" "det-lat"
       "sdc ±95");
  Array.iteri
    (fun i (ins : Instr.ins) ->
      let s = v.F.v_sites.(i) in
      let sampled = s.F.s_counts.F.samples > 0 in
      if (not only_sampled) || sampled then
        if sampled then
          let lat =
            match F.mean_latency s with
            | Some (steps, _) -> Fmt.str "%9.1f" steps
            | None -> Fmt.str "%9s" "-"
          in
          Buffer.add_string buf
            (Fmt.str "%5d  %-9s %-44s %5d %5d %4d %4d %5d %4d %s %8s@." i
               (prov_tag ins.Instr.prov)
               (Printer.string_of_instr ins.Instr.op)
               s.F.s_counts.F.samples s.F.s_counts.F.benign
               s.F.s_counts.F.sdc s.F.s_counts.F.detected
               s.F.s_counts.F.crash s.F.s_counts.F.timeout lat
               (Fmt.str "±%.3f" (site_hw s.F.s_counts)))
        else
          Buffer.add_string buf
            (Fmt.str "%5d  %-9s %-44s %5s@." i (prov_tag ins.Instr.prov)
               (Printer.string_of_instr ins.Instr.op)
               (if v.F.v_target.F.eligible.(i) then "." else "")))
    code;
  Buffer.contents buf

(* Sites with the most SDCs (then lowest detection counts), for the
   summary's "where to protect next" view. *)
let worst_sites ?(top = 5) (v : F.vulnmap) =
  let sites = ref [] in
  Array.iteri
    (fun i (s : F.site_stat) ->
      if s.F.s_counts.F.sdc > 0 then sites := (i, s) :: !sites)
    v.F.v_sites;
  let sorted =
    List.sort
      (fun (_, (a : F.site_stat)) (_, (b : F.site_stat)) ->
        compare b.F.s_counts.F.sdc a.F.s_counts.F.sdc)
      !sites
  in
  List.filteri (fun i _ -> i < top) sorted

let summary (v : F.vulnmap) =
  let buf = Buffer.create 1024 in
  let c = v.F.v_counts in
  Buffer.add_string buf
    (Fmt.str "campaign: %a@." F.pp_counts c);
  (let t = F.sdc_tally c in
   let w = Stats.wilson t in
   let j = Stats.jeffreys t in
   Buffer.add_string buf
     (Fmt.str
        "SDC probability: %.4f +/- %.4f (Wilson 95%%: [%.4f, %.4f]; \
         Jeffreys: [%.4f, %.4f])@."
        (if t.Stats.n = 0 then 0.0
         else float_of_int t.Stats.k /. float_of_int t.Stats.n)
        (Stats.half_width w) w.Stats.lo w.Stats.hi j.Stats.lo j.Stats.hi));
  (match latency_stats v with
  | None -> Buffer.add_string buf "detection latency: no detected faults\n"
  | Some l ->
    Buffer.add_string buf
      (Fmt.str
         "detection latency over %d detected faults: mean %.1f instrs \
          (%.1f cycles), p50 %d, p95 %d, max %d instrs@."
         l.detected l.mean_steps l.mean_cycles l.p50_steps l.p95_steps
         l.max_steps));
  (match worst_sites v with
  | [] -> ()
  | worst ->
    Buffer.add_string buf "most vulnerable sites (by SDC count):\n";
    List.iter
      (fun (i, (s : F.site_stat)) ->
        Buffer.add_string buf
          (Fmt.str "  %5d  %-44s %d sdc / %d samples (±%.3f)@." i
             (Printer.string_of_instr
                v.F.v_target.F.img.Ferrum_machine.Machine.code.(i).Instr.op)
             s.F.s_counts.F.sdc s.F.s_counts.F.samples
             (site_hw s.F.s_counts)))
      worst);
  (match v.F.v_escapes with
  | [] -> ()
  | escapes ->
    let by_reason = Hashtbl.create 8 in
    List.iter
      (fun (_, _, e) ->
        let k = Propagation.escape_name e in
        Hashtbl.replace by_reason k
          (1 + Option.value ~default:0 (Hashtbl.find_opt by_reason k)))
      escapes;
    Buffer.add_string buf "escape explanations:\n";
    List.iter
      (fun e ->
        let k = Propagation.escape_name e in
        match Hashtbl.find_opt by_reason k with
        | Some n ->
          Buffer.add_string buf
            (Fmt.str "  %-24s %4d  (%s)@." k n (Propagation.escape_describe e))
        | None -> ())
      [
        Propagation.Unprotected_program;
        Propagation.Unchecked_site;
        Propagation.Masked_then_reactivated;
        Propagation.Output_before_check;
        Propagation.Memory_before_check;
        Propagation.Check_missed_taint;
      ]);
  Buffer.contents buf

let render ?only_sampled (v : F.vulnmap) =
  let eligible_sites =
    Array.fold_left (fun n e -> if e then n + 1 else n) 0 v.F.v_target.F.eligible
  in
  Fmt.str
    "Vulnerability map — %d samples over %d eligible static sites\n%s\n%s"
    v.F.v_samples eligible_sites
    (listing ?only_sampled v)
    (summary v)
