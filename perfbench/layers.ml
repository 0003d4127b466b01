(* The layered campaign benchmark.  One run measures one workload with
   benchmark tracing off (--trace 0: end-to-end metrics) or runs the
   traced per-layer sweep (--trace 1).  Prints readable lines, then the
   one-line JSON result last.  run.py builds this executable, runs it
   and adds the peak RSS of the whole process tree. *)

module Runner = Ferrum_campaign.Runner
module Fsutil = Ferrum_campaign.Fsutil

let workloads = [ "inject"; "vulnmap"; "toolchain"; "serve" ]

let usage =
  "layers.exe --workload inject|vulnmap|toolchain|serve --seed N --seconds S \
   --trace 0|1 [--workdir DIR] [--quick]"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let workdir = ref ".bench_build/perfbench" and quick = ref false in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S length of the measured window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run, or the traced per-layer run");
      ("--workdir", Arg.Set_string workdir, "DIR scratch directory");
      ("--quick", Arg.Set quick, " one set-up per run (for the self-test)") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if (not (List.mem !workload workloads)) || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let seed = !seed and seconds = !seconds in
  let dir = Filename.concat !workdir (Printf.sprintf "%s-%d" !workload (Unix.getpid ())) in
  Fsutil.rm_rf dir;
  Fsutil.mkdir_p dir;
  let setups = if !quick then 1 else 3 in
  (if !trace = 1 then
     Trace_run.run ~seed ~seconds ~workdir:dir
       ~trace_path:
         (Filename.concat !workdir (Printf.sprintf "trace-%s-%d.jsonl" !workload seed))
   else
     match !workload with
     | "inject" -> Campaigns.run ~mode:Runner.Inject ~seed ~seconds ~setups
     | "vulnmap" ->
       (* One pass: a traced round over the 32 targets alone takes some
          35 s. *)
       Campaigns.run ~mode:Runner.Traced ~seed ~seconds ~setups:1
     | "toolchain" -> Toolchain.run ~seed ~seconds ~setups
     | _ -> Serve_load.run ~seed ~seconds ~starts:(if !quick then 2 else 5) ~workdir:dir);
  Fsutil.rm_rf dir;
  Util.print_result ();
  (* Any failed operation or output check fails the run. *)
  if !Util.failed > 0 then exit 1
