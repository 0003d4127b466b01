(* Tests for selective protection (E12) and the liveness soundness
   property that underpins liveness-directed register reuse. *)

open Ferrum_asm
module Machine = Ferrum_machine.Machine
module Predecode = Ferrum_machine.Predecode
module F = Ferrum_faultsim.Faultsim
module Rng = Ferrum_faultsim.Rng
module Pipeline = Ferrum_eddi.Pipeline
module Technique = Ferrum_eddi.Technique
module Ferrum_pass = Ferrum_eddi.Ferrum_pass
module Liveness = Ferrum_analysis.Liveness
module Spare = Ferrum_eddi.Spare
module Selective = Ferrum_report.Selective

let workload name = (Option.get (Ferrum_workloads.Catalog.find name)).build ()

let outcome_of p = fst (Predecode.run_fresh (Machine.load p))

(* ---- selective machinery ---- *)

let test_site_table_matches_loader () =
  let p = (Pipeline.raw (workload "LUD")).program in
  let table = Selective.site_table p in
  let img = Machine.load p in
  Alcotest.(check int) "one entry per flattened instruction"
    (Array.length img.Machine.code)
    (Array.length table);
  (* spot-check: the entry block starts at index 0, position 0 *)
  let label0, i0 = table.(0) in
  Alcotest.(check int) "first position" 0 i0;
  Alcotest.(check bool) "first label is a function entry" true
    (List.exists (fun (f : Prog.func) -> f.fname = label0) p.funcs)

let test_select_none_is_raw_cost () =
  let m = workload "Pathfinder" in
  let raw = (Pipeline.raw m).program in
  let config =
    { Ferrum_pass.default_config with select = Some (fun _ _ -> false) }
  in
  let p, stats = Ferrum_pass.protect ~config raw in
  Alcotest.(check int) "nothing protected" 0
    (stats.Ferrum_pass.simd_batched + stats.Ferrum_pass.general_protected
    + stats.Ferrum_pass.comparisons_protected);
  Alcotest.(check int) "same size" (Prog.num_instructions raw)
    (Prog.num_instructions p);
  Alcotest.(check bool) "same behaviour" true
    (Machine.equal_outcome (outcome_of raw) (outcome_of p))

let test_select_all_equals_full () =
  let m = workload "kNN" in
  let raw = (Pipeline.raw m).program in
  let full, _ = Ferrum_pass.protect raw in
  let all, _ =
    Ferrum_pass.protect
      ~config:{ Ferrum_pass.default_config with select = Some (fun _ _ -> true) }
      raw
  in
  Alcotest.(check int) "identical size" (Prog.num_instructions full)
    (Prog.num_instructions all)

let test_selected_subset_semantics () =
  (* protecting arbitrary subsets must never change fault-free output *)
  let m = workload "kmeans" in
  let raw = (Pipeline.raw m).program in
  let expect = outcome_of raw in
  List.iter
    (fun modulus ->
      let config =
        { Ferrum_pass.default_config with
          select = Some (fun _ i -> i mod modulus = 0) }
      in
      let p, _ = Ferrum_pass.protect ~config raw in
      if not (Machine.equal_outcome expect (outcome_of p)) then
        Alcotest.failf "subset (mod %d) broke semantics" modulus)
    [ 2; 3; 5 ]

let test_budget_monotone_overhead () =
  let points = Selective.run_benchmark ~samples:150 (workload "LUD") in
  let rec check_sorted = function
    | (a : Selective.point) :: (b :: _ as rest) ->
      Alcotest.(check bool) "overhead grows with budget" true
        (a.Selective.overhead <= b.Selective.overhead +. 1e-9);
      check_sorted rest
    | _ -> ()
  in
  check_sorted points;
  (* full protection is the last point and must reach 100% *)
  let full = List.nth points (List.length points - 1) in
  Alcotest.(check (float 1e-9)) "full coverage" 1.0 full.Selective.coverage

let test_profile_attributes_sdc () =
  let m = workload "Backprop" in
  let img = Machine.load (Pipeline.raw m).program in
  let counts, totals =
    Selective.profile ~samples:200 ~seed:31L (F.prepare img)
  in
  let attributed = Hashtbl.fold (fun _ n acc -> acc + n) counts 0 in
  Alcotest.(check int) "every sdc attributed to a site" totals.F.sdc
    attributed

(* Sites with equal SDC counts are ranked by static index, so the
   selection does not depend on the order in which sites entered the
   profile's table. *)
let test_select_ties_by_index () =
  let p = (Pipeline.raw (workload "LUD")).program in
  let table = Selective.site_table p in
  let sites = List.init 100 (fun i -> 2 * i) in
  let chosen order ~budget =
    let counts = Hashtbl.create 16 in
    List.iter (fun ix -> Hashtbl.replace counts ix 1) order;
    let selected, n = Selective.select_sites p counts ~budget in
    ( n,
      List.sort compare (Hashtbl.fold (fun s () acc -> s :: acc) selected [])
    )
  in
  let expect = Alcotest.(pair int (list (pair string int))) in
  List.iter
    (fun (budget, k) ->
      let lowest =
        (k, List.sort compare (List.init k (fun i -> table.(2 * i))))
      in
      Alcotest.(check expect) "ascending inserts" lowest
        (chosen sites ~budget);
      Alcotest.(check expect) "descending inserts" lowest
        (chosen (List.rev sites) ~budget))
    [ (0.25, 25); (0.5, 50); (0.75, 75) ]

(* ---- liveness soundness property ----

   If the analysis says register r is dead right before instruction k,
   then clobbering r at that point must not change the program's
   output.  We check it by rebuilding the function with a poison write
   inserted and comparing outcomes. *)

let clobber_at (p : Prog.t) ~fname ~label ~k r poison =
  let poison_ins =
    Instr.original (Instr.Mov (Reg.Q, Instr.Imm poison, Instr.Reg r))
  in
  Prog.map_funcs
    (fun (f : Prog.func) ->
      if f.fname <> fname then f
      else
        Prog.func f.fname
          (List.map
             (fun (b : Prog.block) ->
               if b.label <> label then b
               else
                 let rec insert i = function
                   | rest when i = k -> poison_ins :: rest
                   | [] -> []
                   | x :: rest -> x :: insert (i + 1) rest
                 in
                 Prog.block b.label (insert 0 b.insns))
             f.blocks))
    p

let prop_liveness_sound =
  QCheck.Test.make ~name:"liveness: clobbering a dead register is invisible"
    ~count:25 Tgen.kernel_arbitrary
    (fun kernel ->
      let m = Tgen.build_kernel kernel in
      Ferrum_ir.Verify.run m;
      let p = (Pipeline.raw m).program in
      let expect = outcome_of p in
      let rng = Rng.create ~seed:8L in
      (* try a handful of (function, block, position, register) points *)
      let ok = ref true in
      List.iter
        (fun (f : Prog.func) ->
          let lv = Liveness.analyze f in
          List.iter
            (fun (b : Prog.block) ->
              let n = List.length b.insns in
              if n > 0 then begin
                let k = Rng.int rng n in
                match
                  List.filter
                    (fun r -> Liveness.dead_at lv ~label:b.label ~k r)
                    Spare.preference
                with
                | [] -> ()
                | dead ->
                  let r = List.nth dead (Rng.int rng (List.length dead)) in
                  let poisoned =
                    clobber_at p ~fname:f.fname ~label:b.label ~k r
                      0x5A5A5A5A5A5AL
                  in
                  if not (Machine.equal_outcome expect (outcome_of poisoned))
                  then ok := false
              end)
            f.blocks)
        p.funcs;
      !ok)

let () =
  Alcotest.run "selective"
    [
      ( "machinery",
        [ Alcotest.test_case "site table" `Quick test_site_table_matches_loader;
          Alcotest.test_case "select none" `Quick test_select_none_is_raw_cost;
          Alcotest.test_case "select all = full" `Quick
            test_select_all_equals_full;
          Alcotest.test_case "subset semantics" `Quick
            test_selected_subset_semantics;
          Alcotest.test_case "profile attribution" `Quick
            test_profile_attributes_sdc;
          Alcotest.test_case "budget curve" `Slow test_budget_monotone_overhead;
          Alcotest.test_case "ties by static index" `Quick
            test_select_ties_by_index
        ] );
      ( "liveness-soundness",
        [ QCheck_alcotest.to_alcotest prop_liveness_sound ] );
    ]
