(* The inject and vulnmap workloads: sharded campaigns over every
   catalogue kernel under every configuration, with an equal number of
   samples per target.  A request is one [Runner.run] campaign. *)

module Runner = Ferrum_campaign.Runner
module F = Ferrum_faultsim.Faultsim
module Json = Ferrum_telemetry.Json
open Util

(* Round [round]'s campaign seed: distinct from every other round's, a
   pure function of the workload seed. *)
let campaign_seed seed round = Int64.of_int ((seed * 1_000_003) + 11 + (round * 7919))

(* The record the sharded stream must carry for [sample], computed in
   this process. *)
let in_process ~mode (t : F.target) ~seed ~sample =
  let record =
    match mode with
    | Runner.Inject ->
      let _, _, r = F.campaign_sample t ~seed ~sample in
      r
    | Runner.Traced ->
      let _, _, r, _ = F.vulnmap_sample t ~seed ~sample in
      r
  in
  Json.to_string (F.record_to_json record)

(* Samples per campaign: the default of `ferrum campaign` and of a
   served spec. *)
let samples = 400

let campaign ~mode ~seed (b : Toolchain.built) =
  let res = Runner.run ~mode ~shards:2 ~workers:2 ~seed ~samples b.target in
  op ~failures:res.Runner.retried (b.label ^ ": shard retried");
  res

(* One kernel across the run: the set-up time of each of its slots, each
   target's campaign times, the rounds run so far and round 0's counts. *)
type kernel = {
  src : Toolchain.source;
  mutable builds : float list;
  mutable lat : float list array;
  mutable rounds : int;
  mutable counts : F.counts list;
}

(* Output checks on round 0: a rerun of one target repeats it exactly,
   and the sharded record stream equals in-process samples. *)
let check_outputs ~mode ~seed targets (first : Runner.result array) =
  let cseed = campaign_seed seed 0 and pick = rng ~seed 2 in
  let k = Rng.int pick (Array.length targets) in
  let again = campaign ~mode ~seed:cseed targets.(k) in
  check
    (again.Runner.counts = first.(k).Runner.counts
    && again.Runner.record_lines = first.(k).Runner.record_lines)
    (targets.(k).Toolchain.label ^ ": campaign repeats exactly");
  Array.iteri
    (fun i (b : Toolchain.built) ->
      let lines = Array.of_list first.(i).Runner.record_lines in
      for _ = 1 to 2 do
        let s = Rng.int pick (Array.length lines) in
        check
          (in_process ~mode b.target ~seed:cseed ~sample:s = lines.(s))
          (Printf.sprintf "%s sample %d: sharded record = in-process record" b.label s)
      done)
    targets

(* One slot of a kernel: its four targets built afresh (set-up, timed),
   then campaigned round after round until [deadline].  Every round
   draws fresh samples: the cost of a sample has a long tail, so a run
   must see as many distinct faults as it can. *)
let slot ~mode ~seed ~deadline k =
  Gc.full_major ();
  let built, dt =
    host_timed (fun () ->
        Toolchain.build ~lint:false ~vulnmap:(mode = Runner.Traced) k.src)
  in
  k.builds <- dt :: k.builds;
  let targets = Array.of_list built in
  if k.lat = [||] then k.lat <- Array.map (fun _ -> []) targets;
  let start = k.rounds in
  while k.rounds = start || now () < deadline do
    let cseed = campaign_seed seed k.rounds in
    let results =
      Array.mapi
        (fun i b ->
          let res, dt = host_timed (fun () -> campaign ~mode ~seed:cseed b) in
          k.lat.(i) <- dt :: k.lat.(i);
          res)
        targets
    in
    if k.rounds = 0 then begin
      check_outputs ~mode ~seed targets results;
      k.counts <- Array.to_list (Array.map (fun r -> r.Runner.counts) results)
    end;
    k.rounds <- k.rounds + 1
  done

(* [setups] passes over the kernels, each kernel given an equal slot of
   the window in every pass, so a burst of load from outside the
   benchmark slows one slot of a kernel rather than all its rounds.  Slots
   end at fixed points of the window, so a slot's overrun (it runs at
   least one round) is taken from the next rather than added.  One
   kernel's targets are held at a time: holding all 32 would put a heap
   of some 300 MiB under every forked worker, whose copy-on-write faults
   add about 12 ms to each campaign, a cost that `ferrum inject` on one
   target does not pay. *)
let run ~mode ~seed ~seconds ~setups =
  let ks =
    List.map
      (fun src -> { src; builds = []; lat = [||]; rounds = 0; counts = [] })
      Toolchain.catalogue
  in
  let share = seconds /. float_of_int (setups * List.length ks) in
  let t0 = now () in
  for pass = 0 to setups - 1 do
    List.iteri
      (fun i k ->
        let ends = (pass * List.length ks) + i + 1 in
        slot ~mode ~seed ~deadline:(t0 +. (share *. float_of_int ends)) k)
      ks
  done;
  let lat = List.concat_map (fun k -> Array.to_list k.lat) ks in
  let counts = List.concat_map (fun k -> k.counts) ks in
  let total f = List.fold_left (fun acc c -> acc + f c) 0 counts in
  let all = List.concat lat in
  let per q = 1000.0 *. geomean (List.map (quantile q) lat) in
  (* Each target's median campaign time, so every target weighs the same
     and neither a burst of outside load nor a rare long fault moves it. *)
  let rate = float_of_int (samples * List.length lat) /. sum (List.map median lat) in
  report "items_per_s" "1/s" rate;
  report "latency_p50_ms" "ms" (per 0.5);
  report "latency_p90_ms" "ms" (per 0.9);
  (* All 32 targets made campaign-ready: per kernel the median of its
     slots' builds, summed. *)
  report "setup_s" "s" (sum (List.map (fun k -> median k.builds) ks));
  note "samples_per_s" "samples/s" rate;
  note "sdc_pct" "%"
    (100.0
    *. float_of_int (total (fun c -> c.F.sdc))
    /. float_of_int (total (fun c -> c.F.samples)));
  note "campaigns" "count" (float_of_int (List.length all))
