open Ferrum_asm
module F = Ferrum_faultsim.Faultsim
module Machine = Ferrum_machine.Machine
module Lint = Ferrum_analysis.Lint
module Runner = Ferrum_campaign.Runner
module Propagation = F.Propagation

type violation = { x_sample : int; x_static_index : int; x_escape : string }

type outcome = {
  c_samples : int;
  c_sdc : int;
  c_checkable : int;
  c_confirmed : int;
  c_violations : violation list;
  c_uncovered : int;
  c_eligible : int;
}

let passed o = o.c_violations = []

let checkable (e : Propagation.escape) =
  match e with
  | Propagation.Unchecked_site | Propagation.Output_before_check
  (* no checkers in the image at all: every escape path is check-free *)
  | Propagation.Unprotected_program ->
    true
  | _ -> false

let run ?(seed = 2024L) ?(fault_bits = 1) ~samples (p : Prog.t) : outcome =
  let sites, eligible = Lint.uncovered p in
  let covered = Hashtbl.create 256 in
  List.iter
    (fun (s : Lint.site) -> Hashtbl.replace covered s.u_static_index ())
    sites;
  let v =
    Option.get
      (Runner.run ~fault_bits ~mode:Runner.Traced ~shards:1 ~seed ~samples
         (F.prepare (Machine.load p)))
        .Runner.vulnmap
  in
  let checkables =
    List.filter (fun (_, _, e) -> checkable e) v.F.v_escapes
  in
  let violations =
    List.filter_map
      (fun (sample, ix, e) ->
        if Hashtbl.mem covered ix then None
        else
          Some
            { x_sample = sample; x_static_index = ix;
              x_escape = Propagation.escape_name e })
      checkables
  in
  {
    c_samples = samples;
    c_sdc = List.length v.F.v_escapes;
    c_checkable = List.length checkables;
    c_confirmed = List.length checkables - List.length violations;
    c_violations = violations;
    c_uncovered = List.length sites;
    c_eligible = eligible;
  }

let pp ppf o =
  Fmt.pf ppf
    "crossval: %d samples, %d SDC escapes, %d checkable \
     (unchecked-site/output-before-check)@."
    o.c_samples o.c_sdc o.c_checkable;
  Fmt.pf ppf "static uncovered set: %d of %d eligible sites@." o.c_uncovered
    o.c_eligible;
  if passed o then
    Fmt.pf ppf
      "PASS: all %d checkable escapes lie inside the static uncovered set@."
      o.c_confirmed
  else begin
    Fmt.pf ppf "FAIL: %d escape(s) outside the static uncovered set:@."
      (List.length o.c_violations);
    List.iter
      (fun x ->
        Fmt.pf ppf "  sample %d at static index %d (%s)@." x.x_sample
          x.x_static_index x.x_escape)
      o.c_violations
  end
