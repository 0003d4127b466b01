(* Development smoke driver: runs every workload through interpretation,
   compilation and all three protections, reporting sizes and outputs;
   every protected program must also lint clean, with schema-valid,
   byte-reproducible ferrum.lint.v1 JSONL. *)

open Ferrum_machine
module Lint = Ferrum_analysis.Lint
module Metrics = Ferrum_telemetry.Metrics

let pp_out ppf l = Fmt.(list ~sep:(any " ") int64) ppf l

(* Lint a pipeline result (raising on error findings) and render its
   JSONL; validate the lines against the schema and check a second
   rendering is byte-identical. *)
let lint_smoke (r : Ferrum_eddi.Pipeline.result) =
  let report = Ferrum_eddi.Pipeline.lint ~assert_clean:true r in
  let render () =
    let buf = Buffer.create 4096 in
    let sink = Metrics.buffer_sink buf in
    Metrics.emit sink (Metrics.header ~kind:Lint.metrics_kind []);
    List.iter (Metrics.emit sink) (Lint.rows r.Ferrum_eddi.Pipeline.program report);
    Metrics.close sink;
    Buffer.contents buf
  in
  let text = render () in
  (match
     Metrics.validate_lines ~kind:Lint.metrics_kind
       ~record_fields:Lint.record_fields
       (Metrics.lines_of_string text)
   with
  | Ok _ -> ()
  | Error msg -> Fmt.failwith "lint JSONL invalid: %s" msg);
  if not (String.equal text (render ())) then
    Fmt.failwith "lint JSONL not byte-reproducible";
  report

let () =
  List.iter
    (fun (e : Ferrum_workloads.Catalog.entry) ->
      let m = e.build () in
      Ferrum_ir.Verify.run m;
      let interp = Ferrum_ir.Interp.run m in
      Fmt.pr "== %s ==@." e.name;
      Fmt.pr "  interp: [%a] (%d steps)@." pp_out interp.output interp.steps;
      let raw = Ferrum_eddi.Pipeline.raw m in
      let img = Machine.load raw.program in
      let g = Predecode.golden img in
      Fmt.pr "  raw:    %a  dyn=%d cycles=%.0f static=%d@."
        Machine.pp_outcome g.outcome g.dyn_instructions g.cycles
        (Ferrum_asm.Prog.num_instructions raw.program);
      (match g.outcome with
      | Machine.Exit out when out = interp.output -> ()
      | _ -> Fmt.pr "  *** MISMATCH vs interpreter@.");
      List.iter
        (fun t ->
          let r = Ferrum_eddi.Pipeline.protect t m in
          let img = Machine.load r.program in
          let g2 = Predecode.golden img in
          let ok =
            match g2.outcome with
            | Machine.Exit out -> out = interp.output
            | _ -> false
          in
          let report = lint_smoke r in
          Fmt.pr
            "  %-8s %s dyn=%d (x%.2f) cycles=%.0f (+%.0f%%) static=%d \
             lint=%d/%d %.3fs@."
            (Ferrum_eddi.Technique.short_name t)
            (if ok then "ok " else Fmt.str "BAD %a" Machine.pp_outcome g2.outcome)
            g2.dyn_instructions
            (float_of_int g2.dyn_instructions /. float_of_int g.dyn_instructions)
            g2.cycles
            (100.0 *. (g2.cycles -. g.cycles) /. g.cycles)
            (Ferrum_asm.Prog.num_instructions r.program)
            (List.length report.Lint.r_findings)
            (List.length report.Lint.r_uncovered)
            r.transform_seconds)
        Ferrum_eddi.Technique.all)
    Ferrum_workloads.Catalog.all
