(* Tests for the fault-injection framework: PRNG determinism, site
   eligibility, campaign reproducibility, outcome classification and the
   coverage arithmetic. *)

open Ferrum_asm
module Machine = Ferrum_machine.Machine
module F = Ferrum_faultsim.Faultsim
module Rng = Ferrum_faultsim.Rng
module Pipeline = Ferrum_eddi.Pipeline
module Technique = Ferrum_eddi.Technique
module Runner = Ferrum_campaign.Runner

(* ---- rng ---- *)

let test_rng_determinism () =
  let a = Rng.create ~seed:123L and b = Rng.create ~seed:123L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_bounds () =
  let r = Rng.create ~seed:55L in
  for _ = 1 to 10_000 do
    let v = Rng.int r 7 in
    if v < 0 || v >= 7 then Alcotest.failf "out of range: %d" v
  done

let test_rng_split_independent () =
  let r = Rng.create ~seed:9L in
  let a = Rng.split r and b = Rng.split r in
  Alcotest.(check bool) "different streams" true
    (Rng.next_int64 a <> Rng.next_int64 b)

let prop_rng_uniformish =
  QCheck.Test.make ~name:"rng: rough uniformity over 8 buckets" ~count:20
    QCheck.int64 (fun seed ->
      let r = Rng.create ~seed in
      let buckets = Array.make 8 0 in
      for _ = 1 to 8000 do
        let v = Rng.int r 8 in
        buckets.(v) <- buckets.(v) + 1
      done;
      Array.for_all (fun n -> n > 800 && n < 1200) buckets)

(* ---- site eligibility ---- *)

let small_program () =
  Prog.program
    [ Prog.func "main"
        [ Prog.block "main"
            [ Instr.original (Instr.Mov (Reg.Q, Instr.Imm 7L, Instr.Reg Reg.RDI));
              Instr.dup (Instr.Mov (Reg.Q, Instr.Imm 7L, Instr.Reg Reg.R10));
              Instr.check (Instr.Cmp (Reg.Q, Instr.Reg Reg.R10, Instr.Reg Reg.RDI));
              Instr.check (Instr.Jcc (Cond.NE, "exit_function"));
              Instr.original (Instr.Call "print_i64");
              Instr.original Instr.Ret ] ] ]

let test_eligibility_scopes () =
  let img = Machine.load (small_program ()) in
  let orig = F.prepare ~scope:F.Original_only img in
  let all = F.prepare ~scope:F.All_sites img in
  (* original scope: only the first mov has a destination (call/ret do
     not); all-sites adds the dup mov and the checker cmp's flags *)
  Alcotest.(check int) "original sites" 1 orig.F.eligible_steps;
  Alcotest.(check int) "all sites" 3 all.F.eligible_steps;
  Alcotest.(check (list int64)) "golden output" [ 7L ] orig.F.golden_output

let test_golden_failure_raises () =
  let p =
    Prog.program
      [ Prog.func "main"
          [ Prog.block "main" [ Instr.original (Instr.Jmp "exit_function") ] ] ]
  in
  match F.prepare (Machine.load p) with
  | _ -> Alcotest.fail "expected Golden_failure"
  | exception F.Golden_failure _ -> ()

(* ---- single injections ---- *)

let test_injection_flips_output () =
  (* flipping a bit of RDI right before print must change the output or
     be detected -- in this unprotected program it must be an SDC *)
  let p =
    Prog.program
      [ Prog.func "main"
          [ Prog.block "main"
              [ Instr.original (Instr.Mov (Reg.Q, Instr.Imm 0L, Instr.Reg Reg.RDI));
                Instr.original (Instr.Call "print_i64");
                Instr.original Instr.Ret ] ] ]
  in
  let t = F.prepare (Machine.load p) in
  Alcotest.(check int) "one site" 1 t.F.eligible_steps;
  let sdc = ref 0 in
  for seed = 1 to 32 do
    let rng = Rng.create ~seed:(Int64.of_int seed) in
    let cls, fault = F.inject t rng ~dyn_index:0 in
    Alcotest.(check bool) "site reached" true (fault.F.static_index >= 0);
    match cls with
    | F.Sdc -> incr sdc
    | c -> Alcotest.failf "expected sdc, got %s" (F.classification_name c)
  done;
  Alcotest.(check int) "every flip corrupts the printed value" 32 !sdc

let test_injection_detected_when_protected () =
  let m = (Option.get (Ferrum_workloads.Catalog.find "LUD")).build () in
  let p = (Pipeline.protect Technique.Ferrum m).program in
  let t = F.prepare (Machine.load p) in
  let rng = Rng.create ~seed:1L in
  let detected = ref 0 and sdc = ref 0 in
  for k = 0 to 49 do
    let dyn_index = k * t.F.eligible_steps / 50 in
    match fst (F.inject t (Rng.split rng) ~dyn_index) with
    | F.Detected -> incr detected
    | F.Sdc -> incr sdc
    | _ -> ()
  done;
  Alcotest.(check int) "no sdc" 0 !sdc;
  Alcotest.(check bool) "many detected" true (!detected > 20)

(* A traced fault whose site is never reached: the fast engine's
   record and summary are the scratch oracle's, and building them
   allocates no fresh machine state (the image's memory alone is
   1 MiB).  The targets claim a thousand eligible write-backs where the
   program retires a few, so drawn faults land past the last one. *)
let test_traced_unreached () =
  let img = Machine.load (small_program ()) in
  let target engine =
    { (F.prepare ~engine img) with F.eligible_steps = 1000 }
  in
  let scratch = target F.Scratch and fast = target F.default_engine in
  let sample t k = F.vulnmap_sample t ~seed:4L ~sample:k in
  ignore (sample fast 0);
  for k = 1 to 3 do
    let cls, fault, record, summary = sample scratch k in
    let before = Gc.allocated_bytes () in
    let cls', fault', record', summary' = sample fast k in
    let bytes = Gc.allocated_bytes () -. before in
    Alcotest.(check int) "unreached" (-1) fault.F.static_index;
    Alcotest.(check bool) "the oracle's class, fault, record and summary"
      true
      (cls = cls' && fault = fault' && record = record' && summary = summary');
    if bytes > float_of_int (img.Machine.mem_size / 2) then
      Alcotest.failf "a traced unreached sample allocated %.0f bytes" bytes
  done

(* ---- campaigns ---- *)

let test_campaign_reproducible () =
  let m = (Option.get (Ferrum_workloads.Catalog.find "kNN")).build () in
  let img = Machine.load (Pipeline.raw m).program in
  let campaign seed =
    Runner.run ~mode:Runner.Inject ~shards:1 ~seed ~samples:40 (F.prepare img)
  in
  let a = campaign 5L and b = campaign 5L in
  Alcotest.(check bool) "same counts" true (a.Runner.counts = b.Runner.counts);
  let c = campaign 6L in
  Alcotest.(check bool) "likely different counts with another seed" true
    (a.Runner.counts <> c.Runner.counts
    || a.Runner.record_lines <> c.Runner.record_lines)

let test_campaign_counts_sum () =
  let m = (Option.get (Ferrum_workloads.Catalog.find "Pathfinder")).build () in
  let img = Machine.load (Pipeline.raw m).program in
  let c = Ferrum_report.Experiments.campaign_counts ~seed:8L ~samples:60 img in
  Alcotest.(check int) "samples" 60 c.F.samples;
  Alcotest.(check int) "partition" 60
    (c.F.benign + c.F.sdc + c.F.detected + c.F.crash + c.F.timeout);
  Alcotest.(check int) "raw code never detects" 0 c.F.detected

(* ---- metrics ---- *)

let counts ~samples ~sdc =
  { F.samples; benign = samples - sdc; sdc; detected = 0; crash = 0;
    timeout = 0 }

let test_coverage_math () =
  let raw = counts ~samples:100 ~sdc:40 in
  Alcotest.(check (float 1e-9)) "full" 1.0
    (F.sdc_coverage ~raw ~protected_:(counts ~samples:100 ~sdc:0));
  Alcotest.(check (float 1e-9)) "half" 0.5
    (F.sdc_coverage ~raw ~protected_:(counts ~samples:100 ~sdc:20));
  Alcotest.(check (float 1e-9)) "none" 0.0
    (F.sdc_coverage ~raw ~protected_:(counts ~samples:100 ~sdc:40));
  (* worse than raw clamps at 0 *)
  Alcotest.(check (float 1e-9)) "clamped" 0.0
    (F.sdc_coverage ~raw ~protected_:(counts ~samples:100 ~sdc:90));
  (* no raw SDC: coverage trivially 1 *)
  Alcotest.(check (float 1e-9)) "degenerate" 1.0
    (F.sdc_coverage ~raw:(counts ~samples:100 ~sdc:0)
       ~protected_:(counts ~samples:100 ~sdc:0))

let test_overhead_math () =
  Alcotest.(check (float 1e-9)) "50%" 0.5
    (F.overhead ~raw_cycles:100.0 ~prot_cycles:150.0);
  Alcotest.(check (float 1e-9)) "zero" 0.0
    (F.overhead ~raw_cycles:100.0 ~prot_cycles:100.0)

let test_degenerate_stats () =
  (* degenerate tallies keep an exact probability; their Wilson
     intervals are covered in test_stats.ml *)
  Alcotest.(check (float 0.0)) "empty probability" 0.0
    (F.sdc_probability F.zero_counts);
  Alcotest.(check (float 1e-9)) "all-sdc probability" 1.0
    (F.sdc_probability (counts ~samples:25 ~sdc:25));
  Alcotest.(check (float 1e-9)) "one-sample probability" 1.0
    (F.sdc_probability (counts ~samples:1 ~sdc:1))

let () =
  Alcotest.run "faultsim"
    [
      ( "rng",
        [ Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          QCheck_alcotest.to_alcotest prop_rng_uniformish ] );
      ( "sites",
        [ Alcotest.test_case "scopes" `Quick test_eligibility_scopes;
          Alcotest.test_case "golden failure" `Quick test_golden_failure_raises
        ] );
      ( "injection",
        [ Alcotest.test_case "unprotected print corrupts" `Quick
            test_injection_flips_output;
          Alcotest.test_case "traced, unreached site" `Quick
            test_traced_unreached;
          Alcotest.test_case "protected detects" `Quick
            test_injection_detected_when_protected ] );
      ( "campaign",
        [ Alcotest.test_case "reproducible" `Quick test_campaign_reproducible;
          Alcotest.test_case "counts partition" `Quick test_campaign_counts_sum
        ] );
      ( "metrics",
        [ Alcotest.test_case "coverage" `Quick test_coverage_math;
          Alcotest.test_case "overhead" `Quick test_overhead_math;
          Alcotest.test_case "degenerate counts" `Quick
            test_degenerate_stats ] );
    ]
