(* Tests for the statistical confidence layer: Wilson/Jeffreys interval
   correctness (including the degenerate tallies the old normal
   approximation got wrong), streaming-tally/batch-recompute equality,
   shard-merge associativity, serialization of the ferrum.stats.v1
   rows, byte-identical adaptive campaigns across shard counts, and
   the adaptive-vs-flat acceptance bound: with the same budget the
   adaptive allocator must shrink the mean Wilson half-width over the
   worst decile of vulnerability-map sites. *)

module Machine = Ferrum_machine.Machine
module F = Ferrum_faultsim.Faultsim
module Stats = Ferrum_telemetry.Stats
module Runner = Ferrum_campaign.Runner
module Pipeline = Ferrum_eddi.Pipeline
module Catalog = Ferrum_workloads.Catalog

let feq ?(eps = 1e-6) msg a b =
  if abs_float (a -. b) > eps then
    Alcotest.failf "%s: expected %.8f, got %.8f" msg a b

(* ---- interval estimators ---- *)

let test_wilson_known_value () =
  (* n=100, k=50, z=1.96: the textbook Wilson interval is
     [0.40383, 0.59617]. *)
  let w = Stats.wilson (Stats.make ~n:100 ~k:50) in
  feq ~eps:1e-4 "lo" 0.40383 w.Stats.lo;
  feq ~eps:1e-4 "hi" 0.59617 w.Stats.hi;
  feq ~eps:1e-4 "half-width" 0.09617 (Stats.half_width w)

let test_wilson_degenerate () =
  (* The degeneracies the normal approximation suffered: n=0 gave NaN
     and k=0 / k=n gave zero-width intervals.  Wilson must yield the
     whole unit interval for n=0 and nonzero width at the corners. *)
  let empty = Stats.wilson Stats.zero in
  feq "n=0 lo" 0.0 empty.Stats.lo;
  feq "n=0 hi" 1.0 empty.Stats.hi;
  let none = Stats.wilson (Stats.make ~n:10 ~k:0) in
  feq "k=0 lower bound" 0.0 none.Stats.lo;
  Alcotest.(check bool) "k=0 has width" true (none.Stats.hi > 0.0);
  let all = Stats.wilson (Stats.make ~n:10 ~k:10) in
  feq "k=n upper bound" 1.0 all.Stats.hi;
  Alcotest.(check bool) "k=n has width" true (all.Stats.lo < 1.0);
  (* the half-widths campaign tables print: total ignorance at n=0,
     finite and strictly inside (0, 1/2) for all-SDC tallies, and
     finite and positive for a single sample *)
  feq "n=0 half-width" 0.5 (Stats.half_width empty);
  let hw n k = Stats.half_width (Stats.wilson (Stats.make ~n ~k)) in
  Alcotest.(check bool) "all-sdc half-width finite, in (0, 0.5)" true
    (Float.is_finite (hw 25 25) && hw 25 25 > 0.0 && hw 25 25 < 0.5);
  Alcotest.(check bool) "one-sample half-width finite, positive" true
    (Float.is_finite (hw 1 1) && hw 1 1 > 0.0)

let test_wilson_shrinks () =
  let hw n k = Stats.half_width (Stats.wilson (Stats.make ~n ~k)) in
  Alcotest.(check bool) "10 -> 100 shrinks" true (hw 100 50 < hw 10 5);
  Alcotest.(check bool) "100 -> 1000 shrinks" true (hw 1000 500 < hw 100 50);
  Alcotest.(check bool) "bounded by [0,1]" true
    (let w = Stats.wilson (Stats.make ~n:3 ~k:1) in
     w.Stats.lo >= 0.0 && w.Stats.hi <= 1.0 && w.Stats.lo < w.Stats.hi)

let test_jeffreys_quantiles () =
  (* The Jeffreys bounds are the 2.5%/97.5% quantiles of the
     Beta(k+1/2, n-k+1/2) posterior, so the regularized incomplete
     beta must evaluate to the tail masses at the bounds. *)
  let t = Stats.make ~n:40 ~k:10 in
  let j = Stats.jeffreys t in
  feq ~eps:1e-4 "lower tail mass" 0.025 (Stats.betai 10.5 30.5 j.Stats.lo);
  feq ~eps:1e-4 "upper tail mass" 0.975 (Stats.betai 10.5 30.5 j.Stats.hi);
  (* standard endpoint convention at the corners *)
  let none = Stats.jeffreys (Stats.make ~n:10 ~k:0) in
  feq "k=0 lower bound" 0.0 none.Stats.lo;
  let all = Stats.jeffreys (Stats.make ~n:10 ~k:10) in
  feq "k=n upper bound" 1.0 all.Stats.hi

(* Memoized intervals must be the ones a fresh computation gives, bit
   for bit.  The reference recomputes each Beta quantile by the same
   60-step bisection on the exposed [betai]; every tally is asked for
   twice (a miss, then a hit), and the grid is big enough to overflow
   the memo's bound once. *)
let test_jeffreys_memo () =
  let quantile a b q =
    let lo = ref 0.0 and hi = ref 1.0 in
    for _ = 1 to 60 do
      let mid = 0.5 *. (!lo +. !hi) in
      if Stats.betai a b mid < q then lo := mid else hi := mid
    done;
    0.5 *. (!lo +. !hi)
  in
  let fresh ~coverage n k =
    if n = 0 then (0.0, 1.0)
    else
      let a = float_of_int k +. 0.5 and b = float_of_int (n - k) +. 0.5 in
      let tail = (1.0 -. coverage) /. 2.0 in
      ( (if k = 0 then 0.0 else quantile a b tail),
        if k = n then 1.0 else quantile a b (1.0 -. tail) )
  in
  let bits (lo, hi) = (Int64.bits_of_float lo, Int64.bits_of_float hi) in
  List.iter
    (fun coverage ->
      for n = 0 to 64 do
        for k = 0 to n do
          let want = bits (fresh ~coverage n k) in
          for _ = 1 to 2 do
            let j = Stats.jeffreys ~coverage (Stats.make ~n ~k) in
            Alcotest.(check (pair int64 int64))
              (Printf.sprintf "n=%d k=%d coverage=%g" n k coverage)
              want
              (bits (j.Stats.lo, j.Stats.hi))
          done
        done
      done)
    [ 0.95; 0.9 ]

(* ---- tallies: streaming vs batch, merge algebra ---- *)

let tally_of_list = List.fold_left Stats.add Stats.zero

let prop_stream_equals_batch =
  QCheck.Test.make ~name:"stats: streaming tally = batch recompute"
    ~count:200
    QCheck.(list bool)
    (fun outcomes ->
      let streamed = tally_of_list outcomes in
      let batch =
        Stats.make ~n:(List.length outcomes)
          ~k:(List.length (List.filter Fun.id outcomes))
      in
      streamed = batch)

let prop_merge_associative =
  QCheck.Test.make ~name:"stats: shard merge associative and exact"
    ~count:200
    QCheck.(triple (list bool) (list bool) (list bool))
    (fun (a, b, c) ->
      let ta = tally_of_list a
      and tb = tally_of_list b
      and tc = tally_of_list c in
      Stats.merge (Stats.merge ta tb) tc
      = Stats.merge ta (Stats.merge tb tc)
      && Stats.merge (Stats.merge ta tb) tc = tally_of_list (a @ b @ c))

let test_stream_sites_and_rows () =
  let s = Stats.create ~stride:2 ~budget:6 () in
  Stats.observe s ~site:3 ~sdc:false;
  Stats.observe s ~site:3 ~sdc:true;
  Stats.round_end s;
  Stats.observe s ~site:1 ~sdc:false;
  Alcotest.(check int) "spent" 3 (Stats.spent s);
  Alcotest.(check bool) "total tally" true
    (Stats.total s = Stats.make ~n:3 ~k:1);
  (* every serialized row must parse back to itself *)
  List.iter
    (fun line ->
      match Stats.row_of_string line with
      | Error e -> Alcotest.failf "unparseable row %s: %s" line e
      | Ok r ->
        let again =
          Result.get_ok (Stats.row_of_string (Ferrum_telemetry.Json.to_string
                                                (Stats.row_json r)))
        in
        if again <> r then Alcotest.failf "roundtrip drift: %s" line)
    (Stats.lines s);
  let rows = Stats.rows s in
  Alcotest.(check bool) "has a round row" true
    (List.exists (fun r -> r.Stats.row = "round") rows);
  match List.rev rows with
  | last :: _ -> Alcotest.(check string) "campaign row last" "campaign"
                   last.Stats.row
  | [] -> Alcotest.fail "no rows"

(* ---- adaptive campaigns ---- *)

let raw_workload name =
  let m = (Option.get (Catalog.find name)).Catalog.build () in
  F.prepare (Machine.load (Pipeline.raw m).program)

let test_adaptive_shard_identity () =
  (* Fixed seed and budget: the adaptive campaign's merged record and
     stats documents must be byte-identical for any shard count. *)
  let run k =
    let r =
      Runner.run ~mode:Runner.Inject ~shards:k ~seed:77L ~samples:48
        ~policy:{ Runner.rounds = 3; target_ci = 0.0 }
        (raw_workload "kNN")
    in
    (r.Runner.record_lines, Runner.stats_lines r)
  in
  let ref_records, ref_stats = run 1 in
  List.iter
    (fun k ->
      let records, stats = run k in
      Alcotest.(check (list string))
        (Fmt.str "records, %d shards" k)
        ref_records records;
      Alcotest.(check (list string))
        (Fmt.str "stats, %d shards" k)
        ref_stats stats)
    [ 2; 3 ]

(* The acceptance bound from the issue: with the same total budget, the
   adaptive allocator must achieve a strictly smaller mean Wilson SDC
   half-width than the flat campaign over the worst decile of
   vulnerability-map sites (the top tenth of static sites ranked by the
   flat run's SDC estimate, ties broken by index). *)
let test_adaptive_beats_flat_on_worst_decile () =
  (* The budget must comfortably exceed the candidate-site count
     (kNN raw: 261) or neither scheme can lift the worst sites past a
     couple of samples each. *)
  let budget = 1200 and seed = 21L in
  let target = raw_workload "kNN" in
  let flat =
    Runner.run ~mode:Runner.Traced ~shards:1 ~seed ~samples:budget target
  in
  let adaptive =
    Runner.run ~mode:Runner.Traced ~shards:1 ~seed ~samples:budget
      ~policy:{ Runner.rounds = 8; target_ci = 0.0 }
      target
  in
  let site_counts r i =
    let v = Option.get r.Runner.vulnmap in
    v.F.v_sites.(i).F.s_counts
  in
  let eligible = target.F.eligible in
  let candidates =
    List.filter (fun i -> eligible.(i))
      (List.init (Array.length eligible) Fun.id)
  in
  let p_hat c =
    if c.F.samples = 0 then 0.0
    else float_of_int c.F.sdc /. float_of_int c.F.samples
  in
  let ranked =
    List.sort
      (fun a b ->
        let d = compare (p_hat (site_counts flat b))
                  (p_hat (site_counts flat a)) in
        if d <> 0 then d else compare a b)
      candidates
  in
  let decile =
    let n = (List.length candidates + 9) / 10 in
    List.filteri (fun i _ -> i < n) ranked
  in
  let mean_hw r =
    let sum =
      List.fold_left
        (fun acc i ->
          let c = site_counts r i in
          acc
          +. Stats.half_width
               (Stats.wilson { Stats.n = c.F.samples; k = c.F.sdc }))
        0.0 decile
    in
    sum /. float_of_int (List.length decile)
  in
  let flat_hw = mean_hw flat and adaptive_hw = mean_hw adaptive in
  if not (adaptive_hw < flat_hw) then
    Alcotest.failf
      "adaptive did not shrink worst-decile CI: flat %.4f vs adaptive %.4f"
      flat_hw adaptive_hw

let () =
  Alcotest.run "stats"
    [
      ( "intervals",
        [
          Alcotest.test_case "wilson known value" `Quick
            test_wilson_known_value;
          Alcotest.test_case "wilson degenerate tallies" `Quick
            test_wilson_degenerate;
          Alcotest.test_case "wilson shrinks with n" `Quick
            test_wilson_shrinks;
          Alcotest.test_case "jeffreys quantiles" `Quick
            test_jeffreys_quantiles;
          Alcotest.test_case "jeffreys memo is exact" `Quick
            test_jeffreys_memo;
        ] );
      ( "tallies",
        [
          QCheck_alcotest.to_alcotest prop_stream_equals_batch;
          QCheck_alcotest.to_alcotest prop_merge_associative;
          Alcotest.test_case "stream rows and sites" `Quick
            test_stream_sites_and_rows;
        ] );
      ( "adaptive",
        [
          Alcotest.test_case "byte-identical across shard counts" `Slow
            test_adaptive_shard_identity;
          Alcotest.test_case "beats flat on worst decile" `Slow
            test_adaptive_beats_flat_on_worst_decile;
        ] );
    ]
