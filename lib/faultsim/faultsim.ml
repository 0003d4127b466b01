(* Assembly-level fault injection (paper §II-B, §IV-A2).

   Fault model: a single bit flip in the destination of one dynamically
   executed instruction — a general-purpose register, a 64-bit SIMD
   lane, or one of the RFLAGS bits the instruction defines — applied
   immediately after write-back.  Memory and caches are assumed
   ECC-protected and are not injection targets.

   Site scope: by default only [Original]-provenance instructions are
   sampled (the campaign measures protection of the program itself); the
   [All_sites] scope includes duplicates, checkers and instrumentation
   (experiment E8 in DESIGN.md). *)

open Ferrum_asm
module Machine = Ferrum_machine.Machine
module Snapshot = Ferrum_machine.Snapshot
module Predecode = Ferrum_machine.Predecode

type scope = Original_only | All_sites

(* How injected runs execute.  All three produce bit-identical
   classifications, records and JSONL streams; they differ only in
   speed.  [Scratch] is the historical reference path: a fresh 1 MiB
   state per sample, the whole prefix re-executed under the observer.
   [Pooled] reuses one state per target/worker (dirty pages undone
   incrementally) and runs the pre-flip prefix unobserved.
   [Checkpointed k] additionally restores the golden-run checkpoint
   nearest below the sampled flip point, so each sample pays only the
   suffix, and ends an untraced suffix at the first golden checkpoint
   its state matches ({!run_suffix}). *)
type engine = Scratch | Pooled | Checkpointed of int

let default_engine = Checkpointed 4096

let engine_name = function
  | Scratch -> "scratch"
  | Pooled -> "pooled"
  | Checkpointed k -> Printf.sprintf "ckpt-%d" k

let engine_of_name s =
  match s with
  | "scratch" -> Some Scratch
  | "pooled" -> Some Pooled
  | _ ->
    let prefix = "ckpt-" in
    let pl = String.length prefix in
    if String.length s > pl && String.sub s 0 pl = prefix then
      match int_of_string_opt (String.sub s pl (String.length s - pl)) with
      | Some k when k >= 1 -> Some (Checkpointed k)
      | _ -> None
    else None

(* Outcome of one injected run, classified against the golden run. *)
type classification =
  | Benign (* normal exit, output identical *)
  | Sdc (* normal exit, output differs: silent data corruption *)
  | Detected (* a checker fired *)
  | Crash (* trap: wild access, divide error, wild control *)
  | Timeout (* fuel exhausted (e.g. corrupted loop bound) *)

let classification_name = function
  | Benign -> "benign"
  | Sdc -> "sdc"
  | Detected -> "detected"
  | Crash -> "crash"
  | Timeout -> "timeout"

let classification_of_name = function
  | "benign" -> Some Benign
  | "sdc" -> Some Sdc
  | "detected" -> Some Detected
  | "crash" -> Some Crash
  | "timeout" -> Some Timeout
  | _ -> None

type counts = {
  samples : int;
  benign : int;
  sdc : int;
  detected : int;
  crash : int;
  timeout : int;
}

let zero_counts =
  { samples = 0; benign = 0; sdc = 0; detected = 0; crash = 0; timeout = 0 }

let add_count c = function
  | Benign -> { c with samples = c.samples + 1; benign = c.benign + 1 }
  | Sdc -> { c with samples = c.samples + 1; sdc = c.sdc + 1 }
  | Detected -> { c with samples = c.samples + 1; detected = c.detected + 1 }
  | Crash -> { c with samples = c.samples + 1; crash = c.crash + 1 }
  | Timeout -> { c with samples = c.samples + 1; timeout = c.timeout + 1 }

let sdc_probability c =
  if c.samples = 0 then 0.0 else float_of_int c.sdc /. float_of_int c.samples

module Stats = Ferrum_telemetry.Stats
module Profile = Ferrum_telemetry.Profile

let sdc_tally c : Stats.tally = { Stats.n = c.samples; k = c.sdc }

(* 95% confidence half-interval on the SDC proportion.  Historically a
   normal approximation, which degenerates to zero width at p = 0,
   p = 1 and n = 0 — exactly the regimes protected campaigns live in.
   Now the Wilson half-width ({!Stats.wilson}): n = 0 is total
   ignorance (0.5), and one-sided counts keep the width the sample
   size actually supports.  Kept under its old name as an alias. *)
let confidence95 c = Stats.half_width (Stats.wilson (sdc_tally c))

let pp_counts ppf c =
  Fmt.pf ppf "n=%d benign=%d sdc=%d detected=%d crash=%d timeout=%d"
    c.samples c.benign c.sdc c.detected c.crash c.timeout

(* ------------------------------------------------------------------ *)
(* Site eligibility.                                                   *)
(* ------------------------------------------------------------------ *)

(* Per static instruction: is it a sampling-eligible injection site? *)
let eligibility (img : Machine.image) scope =
  Array.mapi
    (fun i (ins : Instr.ins) ->
      let prov_ok =
        match scope with
        | All_sites -> true
        | Original_only -> ins.prov = Instr.Original
      in
      prov_ok && img.Machine.dests.(i) <> [])
    img.Machine.code

(* Cumulative engine-phase tallies for one process: how many golden
   walks ({!prepare}, which also captures the checkpoints) ran and how
   many machine steps went into each phase of the fast engines —
   checkpoint restores, replayed prefixes, post-flip suffixes.
   Deterministic for a given seed and sample set, so campaign trace
   spans can carry them as counters without breaking
   byte-reproducibility.  Reset per worker process
   ({!reset_phases}) so a shard's tally covers exactly its own work. *)
type phases = {
  mutable ph_walks : int; (* golden walks ({!prepare}) *)
  mutable ph_walk_steps : int;
  mutable ph_restores : int; (* checkpoint/initial-state restores *)
  mutable ph_prefix_steps : int; (* unobserved replay up to the flip *)
  mutable ph_suffix_steps : int; (* flip + post-flip execution *)
  mutable ph_decodes : int; (* predecode lowerings of this target *)
  mutable ph_fused_steps : int; (* suffix steps retired as fused pairs *)
  mutable ph_converged : int; (* suffixes ended on a golden checkpoint *)
  mutable ph_skipped_steps : int; (* golden steps those suffixes skipped *)
}

let zero_phases () =
  {
    ph_walks = 0;
    ph_walk_steps = 0;
    ph_restores = 0;
    ph_prefix_steps = 0;
    ph_suffix_steps = 0;
    ph_decodes = 0;
    ph_fused_steps = 0;
    ph_converged = 0;
    ph_skipped_steps = 0;
  }

(* A profiled program ready for injection.  The checkpoint cache is
   captured by {!prepare}'s golden walk, so campaign workers forked
   after it inherit the cache and never walk again; the pooled slots
   are built lazily, per process. *)
type target = {
  img : Machine.image;
  eligible : bool array;
  golden_output : int64 list;
  golden_steps : int;
  golden_cycles : float;
  golden_prov_cycles : float array; (* per {!Profile.provenances} *)
  eligible_steps : int; (* dynamic count of eligible write-backs *)
  dyn_static : int array; (* static site of each eligible write-back *)
  fuel : int;
  engine : engine;
  cache : Snapshot.cache; (* golden checkpoints (none unless checkpointed) *)
  mutable slot_ : Snapshot.slot option; (* pooled injected-run state *)
  mutable golden_slot_ : Snapshot.slot option; (* pooled lockstep golden *)
  mutable occ_ : int array array option; (* lazy per-site occurrences *)
  mutable pre_ : Predecode.t option; (* lazy pre-decoded program *)
  phases : phases; (* per-process engine-phase tallies *)
}

let phases (t : target) = t.phases

let reset_phases (t : target) =
  let p = t.phases in
  p.ph_walks <- 0;
  p.ph_walk_steps <- 0;
  p.ph_restores <- 0;
  p.ph_prefix_steps <- 0;
  p.ph_suffix_steps <- 0;
  p.ph_decodes <- 0;
  p.ph_fused_steps <- 0;
  p.ph_converged <- 0;
  p.ph_skipped_steps <- 0

exception Golden_failure of string

(* Profile the fault-free run — output, step count, the eligible
   dynamic injection sites in order and the cycles per provenance,
   summed in retirement order as {!Profile.run} sums them — and, on the
   checkpointed engine, capture the golden checkpoints on the way.
   This is the target's one golden walk. *)
let prepare ?(scope = Original_only) ?(engine = default_engine)
    (img : Machine.image) : target =
  let eligible = eligibility img scope in
  let interval =
    match engine with
    | Checkpointed k -> Some k
    | Scratch | Pooled -> None
  in
  let st = Machine.fresh_state img in
  let recorder = Snapshot.recorder ?interval img st in
  let count = ref 0 in
  let sites = ref (Array.make 1024 0) in
  let prov =
    Array.map
      (fun (ins : Instr.ins) -> Profile.prov_index ins.Instr.prov)
      img.Machine.code
  in
  let costs = img.Machine.costs in
  let prov_cycles = Array.make (List.length Profile.provenances) 0.0 in
  let on_step _st idx =
    let p = prov.(idx) in
    prov_cycles.(p) <- prov_cycles.(p) +. costs.(idx);
    if eligible.(idx) then begin
      if !count = Array.length !sites then begin
        let grown = Array.make (2 * !count) 0 in
        Array.blit !sites 0 grown 0 !count;
        sites := grown
      end;
      !sites.(!count) <- idx;
      incr count
    end;
    Snapshot.record recorder ~seen:!count
  in
  let outcome = Predecode.exec_observed ~on_step (Predecode.get img) st in
  match outcome with
  | Machine.Exit out ->
    let steps = st.Machine.steps in
    let phases = zero_phases () in
    phases.ph_walks <- 1;
    phases.ph_walk_steps <- steps;
    {
      img;
      eligible;
      golden_output = out;
      golden_steps = steps;
      golden_cycles = st.Machine.cycles;
      golden_prov_cycles = prov_cycles;
      eligible_steps = !count;
      dyn_static = Array.sub !sites 0 !count;
      fuel = (steps * 3) + 100_000;
      engine;
      cache = Snapshot.finish recorder ~steps;
      slot_ = None;
      golden_slot_ = None;
      occ_ = None;
      pre_ = None;
      phases;
    }
  | o ->
    raise
      (Golden_failure (Fmt.str "golden run did not exit: %a" Machine.pp_outcome o))

(* Per-site occurrence table: the ascending dynamic ordinals of each
   static site's eligible write-backs, inverted from [dyn_static] on
   first use.  This is what lets the adaptive allocator aim a sample at
   a chosen static site while the injection machinery keeps addressing
   faults by dynamic ordinal. *)
let occurrences (t : target) : int array array =
  match t.occ_ with
  | Some o -> o
  | None ->
    let nstatic = Array.length t.img.Machine.code in
    let counts = Array.make nstatic 0 in
    Array.iter (fun site -> counts.(site) <- counts.(site) + 1) t.dyn_static;
    let occ = Array.init nstatic (fun i -> Array.make counts.(i) 0) in
    let fill = Array.make nstatic 0 in
    Array.iteri
      (fun dyn site ->
        occ.(site).(fill.(site)) <- dyn;
        fill.(site) <- fill.(site) + 1)
      t.dyn_static;
    t.occ_ <- Some occ;
    occ

(* Static sites with at least one eligible dynamic occurrence,
   ascending — the population adaptive allocation draws from. *)
let site_candidates (t : target) : int array =
  let occ = occurrences t in
  let out = ref [] in
  for i = Array.length occ - 1 downto 0 do
    if Array.length occ.(i) > 0 then out := i :: !out
  done;
  Array.of_list !out

let slot (t : target) =
  match t.slot_ with
  | Some s -> s
  | None ->
    let s = Snapshot.make_slot t.cache in
    t.slot_ <- Some s;
    s

let golden_slot (t : target) =
  match t.golden_slot_ with
  | Some s -> s
  | None ->
    let s = Snapshot.make_slot t.cache in
    t.golden_slot_ <- Some s;
    s

(* The target's pre-decoded program, lowered once per process (forked
   workers inherit a decoded parent handle for free).  The eligible-site
   mask is passed as the fusion [avoid] set so no injection site ever
   sits in the second half of a superinstruction. *)
let predecoded (t : target) =
  match t.pre_ with
  | Some p -> p
  | None ->
    let p = Predecode.decode ~avoid:t.eligible t.img in
    t.phases.ph_decodes <- t.phases.ph_decodes + 1;
    t.pre_ <- Some p;
    p

(* ------------------------------------------------------------------ *)
(* One injection.                                                      *)
(* ------------------------------------------------------------------ *)

(* Structured description of the flipped destination, mirrored into the
   metrics stream so downstream analysis never has to parse
   [dest_desc]. *)
type dest_info =
  | Igpr of Reg.gpr * Reg.size
  | Isimd of int * int (* register, 64-bit lane *)
  | Iflag of Cond.flag

(* Description of a single fault, for logging and tests. *)
type fault = {
  dyn_index : int; (* which eligible dynamic write-back *)
  static_index : int; (* filled during the run *)
  dest_desc : string;
  dest_info : dest_info option; (* None when the site was unreached *)
  bit : int; (* first flipped bit *)
}

(* Draw [n] distinct values below [bound]. *)
let distinct_below rng ~n ~bound =
  let n = min n bound in
  let rec go acc =
    if List.length acc >= n then acc
    else
      let v = Rng.int rng bound in
      if List.mem v acc then go acc else go (v :: acc)
  in
  go []

(* Flip [bits] distinct bits of the destination — the paper's model uses
   single flips; [bits > 1] reproduces its multiple-bit-upset future
   work (DESIGN.md E11). *)
let flip_dest ?(bits = 1) rng st (dest : Instr.dest) =
  match dest with
  | Instr.Dgpr (r, s) ->
    let positions = distinct_below rng ~n:bits ~bound:(Reg.size_bits s) in
    List.iter (fun bit -> Machine.flip_gpr st r s ~bit) positions;
    (Printf.sprintf "%%%s" (Reg.gpr_name r s), Igpr (r, s), List.hd positions)
  | Instr.Dsimd (x, lanes) ->
    let lane = List.nth lanes (Rng.int rng (List.length lanes)) in
    let positions = distinct_below rng ~n:bits ~bound:64 in
    List.iter (fun bit -> Machine.flip_simd_lane st x ~lane ~bit) positions;
    ( Printf.sprintf "%%%s[%d]" (Reg.xmm_name x) lane,
      Isimd (x, lane),
      List.hd positions )
  | Instr.Dflags flags ->
    let picks = distinct_below rng ~n:bits ~bound:(List.length flags) in
    List.iter (fun i -> Machine.flip_flag st (List.nth flags i)) picks;
    let f = List.nth flags (List.hd picks) in
    let name =
      match f with
      | Cond.ZF -> "ZF" | Cond.SF -> "SF" | Cond.CF -> "CF" | Cond.OF -> "OF"
    in
    (Printf.sprintf "flags.%s" name, Iflag f, 0)

(* Run the target once, flipping one bit at the [dyn_index]-th eligible
   write-back.  [on_inject] is called right after the flip with the
   already-corrupted state; [observe] (e.g. a {!Ferrum_machine.Flight}
   recorder or a {!Ferrum_telemetry.Propagation} tracer) is called after
   the injection logic on every retired instruction, so it sees
   post-flip state.  Returns the classification, the fault description
   and the final machine state. *)
let classify (t : target) = function
  | Machine.Exit out ->
    if
      List.compare_lengths out t.golden_output = 0
      && List.for_all2 Int64.equal out t.golden_output
    then Benign
    else Sdc
  | Machine.Detected -> Detected
  | Machine.Crash _ -> Crash
  | Machine.Timeout -> Timeout

(* The fault record of a run that ended before the chosen site was
   reached (possible only if dyn_index is out of range). *)
let unreached_fault dyn_index =
  { dyn_index; static_index = -1; dest_desc = "unreached"; dest_info = None;
    bit = -1 }

(* Pick a destination of the instruction at [idx] and flip [fault_bits]
   bits of it — exactly the RNG draws {!inject_full}'s observer makes,
   in the same order. *)
let apply_flip ~fault_bits (t : target) rng st ~dyn_index idx : fault =
  let dests = t.img.Machine.dests.(idx) in
  let d = List.nth dests (Rng.int rng (List.length dests)) in
  let dest_desc, info, bit = flip_dest ~bits:fault_bits rng st d in
  { dyn_index; static_index = idx; dest_desc; dest_info = Some info; bit }

let inject_full ?(fault_bits = 1) ?on_inject ?observe (t : target) rng
    ~dyn_index : classification * fault * Machine.state =
  let st = Machine.fresh_state t.img in
  let seen = ref 0 in
  let fault = ref None in
  let flip_steps = ref (-1) in
  let on_step mstate idx =
    if t.eligible.(idx) then begin
      if !seen = dyn_index then begin
        flip_steps := mstate.Machine.steps;
        fault := Some (apply_flip ~fault_bits t rng mstate ~dyn_index idx);
        match on_inject with Some f -> f mstate | None -> ()
      end;
      incr seen
    end;
    match observe with Some f -> f mstate idx | None -> ()
  in
  let outcome = Predecode.exec_observed ~fuel:t.fuel ~on_step (predecoded t) st in
  (* Phase accounting for the scratch engine: everything up to the flip
     is prefix, the rest suffix (an unreached site is all prefix). *)
  let pre = if !flip_steps >= 0 then !flip_steps else st.Machine.steps in
  t.phases.ph_prefix_steps <- t.phases.ph_prefix_steps + pre;
  t.phases.ph_suffix_steps <-
    t.phases.ph_suffix_steps + (st.Machine.steps - pre);
  let cls = classify t outcome in
  let fault =
    match !fault with Some f -> f | None -> unreached_fault dyn_index
  in
  (cls, fault, st)

(* ------------------------------------------------------------------ *)
(* Fast injection: pooled states, unobserved prefix, checkpoints.      *)
(* ------------------------------------------------------------------ *)

(* Execute [st] unobserved until it is positioned at the flip site —
   the next instruction is eligible and [!seen = dyn_index] — or the
   run ends first.  Returns [None] when positioned (the flip
   instruction has *not* executed yet; {!Machine.step} reports the
   pre-step ip, so stopping on [st.ip] is exact), or [Some outcome]
   mirroring {!Machine.run}'s fuel / wild-control / halt / trap
   semantics, in {!Machine.run}'s check order (fuel before bounds).
   Rides the pre-decoded single-step dispatch: never fused, so the
   stop-at-site check runs before every instruction. *)
let rec run_prefix (t : target) pre len st seen ~dyn_index =
  if st.Machine.steps >= t.fuel then Some Machine.Timeout
  else
    let ip = st.Machine.ip in
    if ip >= len || ip < 0 then
      Some (Machine.Crash (Printf.sprintf "control reached 0x%x" ip))
    else if t.eligible.(ip) && !seen = dyn_index then None
    else
      match Predecode.step1 pre st with
      | exception Machine.Halt o -> Some o
      | exception Machine.Trap m -> Some (Machine.Crash m)
      | idx ->
        if t.eligible.(idx) then incr seen;
        run_prefix t pre len st seen ~dyn_index

(* Run the post-flip suffix unobserved, in legs that end on the golden
   checkpoints' step counts (fused pairs check fuel between their
   halves, so a leg stops exactly there).  At each boundary the state is
   compared with the golden checkpoint; once they match the rest of the
   run *is* the golden run — the machine is a deterministic function of
   the state {!Snapshot.converged} compares — so it ends there as the
   golden run does, with its output, steps and cycles.  Without
   checkpoints (the pooled engine) this is one plain leg. *)
let run_suffix (t : target) pre sl st =
  let cache = t.cache in
  let n = Snapshot.ckpt_count cache in
  let rec leg c =
    if c >= n then Predecode.exec ~fuel:t.fuel pre st
    else
      match Predecode.exec ~fuel:(Snapshot.ckpt_steps cache c) pre st with
      | Machine.Timeout when Snapshot.converged sl c ->
        let ph = t.phases and skipped = t.golden_steps - st.Machine.steps in
        ph.ph_converged <- ph.ph_converged + 1;
        ph.ph_skipped_steps <- ph.ph_skipped_steps + skipped;
        (* the caller counts suffix steps off the final step count *)
        ph.ph_suffix_steps <- ph.ph_suffix_steps - skipped;
        st.Machine.steps <- t.golden_steps;
        st.Machine.cycles <- t.golden_cycles;
        Machine.Exit t.golden_output
      | Machine.Timeout -> leg (c + 1)
      | o -> o
  in
  leg (Snapshot.next_ckpt cache ~steps:st.Machine.steps)

(* {!inject_full}'s exact semantics on a pooled, checkpoint-restored
   state: restore the nearest checkpoint at or below the flip point, run
   the remaining prefix unobserved, execute the flip instruction, flip,
   and run the suffix ({!run_suffix}).  Steps, cycles and fuel all count
   from program start because the restored checkpoint carries them.  The
   returned state is the pooled slot's — valid until the next sample —
   and only its steps and cycles are meaningful once the suffix has
   converged. *)
let inject_fast ~fault_bits (t : target) rng ~dyn_index :
    classification * fault * Machine.state =
  let sl = slot t in
  let seen = ref (Snapshot.restore sl ~dyn_index) in
  let st = Snapshot.state sl in
  let pre = predecoded t in
  t.phases.ph_restores <- t.phases.ph_restores + 1;
  let s0 = st.Machine.steps in
  let prefix_done () =
    t.phases.ph_prefix_steps <- t.phases.ph_prefix_steps + (st.Machine.steps - s0)
  in
  match run_prefix t pre (Array.length t.img.Machine.code) st seen ~dyn_index
  with
  | Some o ->
    prefix_done ();
    (classify t o, unreached_fault dyn_index, st)
  | None -> (
    prefix_done ();
    let s1 = st.Machine.steps in
    let suffix_done () =
      t.phases.ph_suffix_steps <-
        t.phases.ph_suffix_steps + (st.Machine.steps - s1)
    in
    let idx = st.Machine.ip in
    match Predecode.step1 pre st with
    | _retired ->
      let fault = apply_flip ~fault_bits t rng st ~dyn_index idx in
      let f0 = Predecode.fused_steps () in
      let outcome = run_suffix t pre sl st in
      t.phases.ph_fused_steps <-
        t.phases.ph_fused_steps + (Predecode.fused_steps () - f0);
      suffix_done ();
      (classify t outcome, fault, st)
    | exception Machine.Halt o ->
      (* Unreachable in practice — halting instructions define no
         destinations, so they are never eligible — but mirror
         {!Machine.run}, whose observer fires on the halting step. *)
      let fault = apply_flip ~fault_bits t rng st ~dyn_index idx in
      suffix_done ();
      (classify t o, fault, st)
    | exception Machine.Trap m ->
      (* A trapped step is never observed by {!Machine.run}: no flip,
         no RNG draws, the fault stays unreached. *)
      suffix_done ();
      (classify t (Machine.Crash m), unreached_fault dyn_index, st))

let inject ?fault_bits (t : target) rng ~dyn_index : classification * fault =
  let cls, fault, _st = inject_full ?fault_bits t rng ~dyn_index in
  (cls, fault)

(* ------------------------------------------------------------------ *)
(* Per-injection records (campaign metrics).                           *)
(* ------------------------------------------------------------------ *)

module Json = Ferrum_telemetry.Json
module Metrics = Ferrum_telemetry.Metrics

(* Everything needed to attribute one injected run's outcome to a
   specific instruction, destination and bit — the raw material of
   FastFlip-style compositional analysis.  No wall-clock values:
   [cycles] are model cycles, so same-seed campaigns export
   byte-identical record streams. *)
type record = {
  sample : int; (* 0-based injection number within the campaign *)
  r_dyn_index : int; (* which eligible dynamic write-back *)
  r_static_index : int; (* static site, -1 when unreached *)
  opcode : string; (* mnemonic of the targeted instruction *)
  dest : string; (* e.g. "%rax", "%xmm15[1]", "flags.ZF" *)
  r_dest : dest_info option; (* structured view of [dest] *)
  r_bit : int;
  r_class : classification;
  steps : int; (* dynamic instructions of the injected run *)
  cycles : float; (* model cycles of the injected run *)
}

(* RFLAGS bit positions of the flags the machine models. *)
let flag_bit = function
  | Cond.CF -> 0
  | Cond.ZF -> 6
  | Cond.SF -> 7
  | Cond.OF -> 11

(* The structured destination, flattened: kind, register index (GPR
   encoding or SIMD register number), 64-bit lane, RFLAGS bit.  Unused
   coordinates are -1. *)
let dest_info_fields = function
  | Some (Igpr (r, _)) -> ("gpr", Reg.gpr_index r, -1, -1)
  | Some (Isimd (x, lane)) -> ("simd", x, lane, -1)
  | Some (Iflag f) -> ("flags", -1, -1, flag_bit f)
  | None -> ("none", -1, -1, -1)

let record_to_json r =
  let dest_kind, dest_reg, dest_lane, dest_flag = dest_info_fields r.r_dest in
  Json.Obj
    [
      ("sample", Json.Int r.sample);
      ("dyn_index", Json.Int r.r_dyn_index);
      ("static_index", Json.Int r.r_static_index);
      ("opcode", Json.Str r.opcode);
      ("dest", Json.Str r.dest);
      ("dest_kind", Json.Str dest_kind);
      ("dest_reg", Json.Int dest_reg);
      ("dest_lane", Json.Int dest_lane);
      ("dest_flag", Json.Int dest_flag);
      ("bit", Json.Int r.r_bit);
      ("class", Json.Str (classification_name r.r_class));
      ("steps", Json.Int r.steps);
      ("cycles", Json.Float r.cycles);
    ]

(* Schema of one v1 record line: everything but the structured
   destination.  Kept so `ferrum metrics` still validates files written
   before the v2 bump. *)
let record_fields_v1 =
  Metrics.
    [
      field "sample" F_int;
      field "dyn_index" F_int;
      field "static_index" F_int;
      field "opcode" F_string;
      field "dest" F_string;
      field "bit" F_int;
      field "class" F_string;
      field "steps" F_int;
      field "cycles" F_float;
    ]

(* Schema of one record line, for `ferrum metrics` and the smoke
   check. *)
let record_fields =
  record_fields_v1
  @ Metrics.
      [
        field "dest_kind" F_string;
        field "dest_reg" F_int;
        field "dest_lane" F_int;
        field "dest_flag" F_int;
      ]

let metrics_kind = "ferrum.injection.v2"
let metrics_kind_v1 = "ferrum.injection.v1"

(* ------------------------------------------------------------------ *)
(* Campaigns.                                                          *)
(* ------------------------------------------------------------------ *)

type campaign_result = {
  counts : counts;
  target : target;
  faults : (classification * fault) list; (* newest first *)
}

(* The record of one injected run, shared by the plain and the traced
   campaign paths (a traced run's [end_steps]/[end_cycles] are the final
   state's, so both paths render byte-identical record streams). *)
let make_record (t : target) ~sample cls (fault : fault) ~steps ~cycles :
    record =
  let opcode =
    if fault.static_index < 0 then "?"
    else Instr.mnemonic t.img.Machine.code.(fault.static_index).Instr.op
  in
  {
    sample;
    r_dyn_index = fault.dyn_index;
    r_static_index = fault.static_index;
    opcode;
    dest = fault.dest_desc;
    r_dest = fault.dest_info;
    r_bit = fault.bit;
    r_class = cls;
    steps;
    cycles;
  }

(* Where sample [site] aims: uniform over all eligible dynamic
   write-backs by default (site = -1, the flat campaign), or uniform
   over one static site's occurrences when the adaptive allocator has
   assigned the sample there.  Either way the draw consumes exactly one
   [Rng.int] from the per-sample stream, so the remaining stream (bit
   choice, etc.) is identical across policies. *)
let sample_dyn_index (t : target) rng ~site =
  if site < 0 then Rng.int rng t.eligible_steps
  else begin
    let occ = (occurrences t).(site) in
    match Array.length occ with
    | 0 ->
      invalid_arg
        (Fmt.str "Faultsim: site %d has no eligible dynamic occurrences" site)
    | n -> occ.(Rng.int rng n)
  end

(* One campaign sample, addressed by its global index alone: the
   per-sample generator is [Rng.split_at ~seed sample], exactly the
   stream the (sample+1)-th split of a fresh generator yields, so a
   shard can run any contiguous slice of a campaign and the union over
   shards reproduces the sequential run bit for bit. *)
let campaign_sample ?(fault_bits = 1) ?(site = -1) (t : target) ~seed ~sample :
    classification * fault * record =
  let rng = Rng.split_at ~seed sample in
  let dyn_index = sample_dyn_index t rng ~site in
  let cls, fault, st =
    match t.engine with
    | Scratch -> inject_full ~fault_bits t rng ~dyn_index
    | Pooled | Checkpointed _ -> inject_fast ~fault_bits t rng ~dyn_index
  in
  ( cls,
    fault,
    make_record t ~sample cls fault ~steps:st.Machine.steps
      ~cycles:st.Machine.cycles )

(* ------------------------------------------------------------------ *)
(* Adaptive sample allocation.                                         *)
(* ------------------------------------------------------------------ *)

(* How an adaptive campaign splits its budget: [rounds] equal slices,
   each allocated from the statistics of everything before it;
   [target_ci] > 0 stops early (at round granularity) once every
   candidate site's Wilson half-width is at or under the target. *)
type policy = { rounds : int; target_ci : float }

let default_policy = { rounds = 8; target_ci = 0.0 }

(* Contiguous global-sample ranges for the rounds, mirroring
   {!Shard.plan}: near-equal, the first (budget mod rounds) rounds one
   sample larger, clamped so every round is non-empty. *)
let plan_rounds ~rounds ~budget : (int * int) array =
  if budget <= 0 then [||]
  else begin
    let r = max 1 (min rounds budget) in
    let base = budget / r and extra = budget mod r in
    Array.init r (fun i ->
        let lo = (i * base) + min i extra in
        (lo, lo + base + if i < extra then 1 else 0))
  end

(* Allocate [n] samples over the candidate sites, in proportion to the
   Wilson half-widths of their SDC tallies so far ([tally site]; an
   unsampled site has half-width 0.5, maximal pull).  Largest-remainder
   apportionment with ties broken by lower static index; the result
   lists sites ascending with multiplicity, so the mapping from a
   round-local sample index to its site is a pure function of the
   merged prior statistics — byte-reproducible for any shard count. *)
let allocate (t : target) ~tally ~n : int array =
  let sites = site_candidates t in
  let m = Array.length sites in
  if m = 0 then invalid_arg "Faultsim.allocate: no eligible sites";
  if n < 0 then invalid_arg "Faultsim.allocate: negative sample count";
  let w =
    Array.map
      (fun site -> Stats.half_width (Stats.wilson (tally site : Stats.tally)))
      sites
  in
  let total = Array.fold_left ( +. ) 0.0 w in
  let quota = Array.map (fun wi -> float_of_int n *. wi /. total) w in
  let base = Array.map (fun q -> int_of_float (Float.floor q)) quota in
  let rem = max 0 (n - Array.fold_left ( + ) 0 base) in
  let order = Array.init m (fun i -> i) in
  Array.sort
    (fun a b ->
      let fa = quota.(a) -. Float.floor quota.(a)
      and fb = quota.(b) -. Float.floor quota.(b) in
      if fa = fb then compare a b else compare fb fa)
    order;
  for j = 0 to rem - 1 do
    let i = order.(j mod m) in
    base.(i) <- base.(i) + 1
  done;
  let out = Array.make n (-1) in
  let pos = ref 0 in
  Array.iteri
    (fun i site ->
      for _ = 1 to base.(i) do
        out.(!pos) <- site;
        incr pos
      done)
    sites;
  assert (!pos = n);
  out

(* Sample [samples] single-fault runs with the given seed.  [on_record]
   streams one structured record per injection, in sample order;
   [progress] is called after every sample with (done, total);
   [on_stats] observes the running counts every samples/32 injections
   (and at the end) — the sequential per-batch confidence hook. *)
let campaign ?(scope = Original_only) ?(seed = 42L) ?(fault_bits = 1) ?engine
    ?on_record ?progress ?on_stats ~samples img =
  let t = prepare ~scope ?engine img in
  if t.eligible_steps = 0 then
    invalid_arg "Faultsim.campaign: no eligible injection sites";
  let every = max 1 (samples / 32) in
  let rec go sample counts faults =
    if sample = samples then { counts; target = t; faults }
    else
      let cls, fault, record = campaign_sample ~fault_bits t ~seed ~sample in
      let counts = add_count counts cls in
      (match on_record with Some f -> f record | None -> ());
      (match progress with
      | Some f -> f (sample + 1) samples
      | None -> ());
      (match on_stats with
      | Some f when (sample + 1) mod every = 0 || sample + 1 = samples ->
        f ~spent:(sample + 1) counts
      | _ -> ());
      go (sample + 1) counts ((cls, fault) :: faults)
  in
  go 0 zero_counts []

(* SDC coverage of a protected program relative to the raw baseline
   (paper §IV-A3): (SDC_raw - SDC_prot) / SDC_raw. *)
let sdc_coverage ~raw ~protected_ =
  let p_raw = sdc_probability raw in
  if p_raw <= 0.0 then 1.0
  else max 0.0 ((p_raw -. sdc_probability protected_) /. p_raw)

(* Runtime performance overhead (paper §IV-A3) from golden cycles:
   (T_prot - T_raw) / T_raw. *)
let overhead ~raw_cycles ~prot_cycles =
  if raw_cycles <= 0.0 then 0.0 else (prot_cycles -. raw_cycles) /. raw_cycles

(* ------------------------------------------------------------------ *)
(* Propagation tracing.                                                *)
(* ------------------------------------------------------------------ *)

module Propagation = Ferrum_telemetry.Propagation

(* Like {!inject_full}, but with a golden run executing in lockstep:
   returns the propagation summary (first divergence, taint spread,
   detection latency, escape timeline) alongside the classification. *)
let trace_propagation ?fault_bits (t : target) rng ~dyn_index :
    classification * fault * Propagation.summary =
  let tracer = Propagation.create t.img in
  let cls, fault, st =
    inject_full ?fault_bits
      ~on_inject:(Propagation.note_injection tracer)
      ~observe:(Propagation.observe tracer) t rng ~dyn_index
  in
  (cls, fault, Propagation.finish tracer st)

(* {!trace_propagation} on pooled, checkpoint-restored states.  The
   tracer's observation of the pre-flip prefix is a no-op — injected and
   golden states are bit-identical until the flip, so no divergence, no
   taint, nothing recorded — which is what licenses skipping it: the
   lockstep golden state is reconstructed at the flip site by restoring
   a second slot to the same checkpoint and syncing the injected run's
   dirty pages and registers onto it, and the tracer starts observing at
   the flip instruction. *)
let trace_fast ~fault_bits (t : target) rng ~dyn_index :
    classification * fault * Propagation.summary =
  let isl = slot t in
  let seen = ref (Snapshot.restore isl ~dyn_index) in
  let st = Snapshot.state isl in
  let pre = predecoded t in
  t.phases.ph_restores <- t.phases.ph_restores + 1;
  let s0 = st.Machine.steps in
  let prefix_done () =
    t.phases.ph_prefix_steps <- t.phases.ph_prefix_steps + (st.Machine.steps - s0)
  in
  match run_prefix t pre (Array.length t.img.Machine.code) st seen ~dyn_index
  with
  | Some o ->
    (* Site unreached: the traced run never diverged, so the summary is
       that of a tracer that observed nothing. *)
    prefix_done ();
    let tracer = Propagation.create t.img in
    (classify t o, unreached_fault dyn_index, Propagation.finish tracer st)
  | None -> (
    prefix_done ();
    let s1 = st.Machine.steps in
    let suffix_done () =
      t.phases.ph_suffix_steps <-
        t.phases.ph_suffix_steps + (st.Machine.steps - s1)
    in
    let gsl = golden_slot t in
    ignore (Snapshot.restore gsl ~dyn_index : int);
    t.phases.ph_restores <- t.phases.ph_restores + 1;
    Snapshot.sync ~src:isl gsl;
    let tracer = Propagation.create ~golden:(Snapshot.state gsl) t.img in
    let idx = st.Machine.ip in
    match Predecode.step1 pre st with
    | _retired ->
      let fault = apply_flip ~fault_bits t rng st ~dyn_index idx in
      Propagation.note_injection tracer st;
      Propagation.observe tracer st idx;
      let outcome =
        Predecode.exec_observed ~fuel:t.fuel
          ~on_step:(Propagation.observe tracer) pre st
      in
      suffix_done ();
      (classify t outcome, fault, Propagation.finish tracer st)
    | exception Machine.Halt o ->
      (* Unreachable (halting instructions are never eligible); mirrors
         {!inject_full}'s observer firing on the halting step. *)
      let fault = apply_flip ~fault_bits t rng st ~dyn_index idx in
      Propagation.note_injection tracer st;
      Propagation.observe tracer st idx;
      suffix_done ();
      (classify t o, fault, Propagation.finish tracer st)
    | exception Machine.Trap m ->
      suffix_done ();
      (classify t (Machine.Crash m), unreached_fault dyn_index,
       Propagation.finish tracer st))

(* ------------------------------------------------------------------ *)
(* Per-static-instruction vulnerability maps.                          *)
(* ------------------------------------------------------------------ *)

(* Outcome distribution and detection-latency sums of one static
   injection site (FastFlip's unit of analysis). *)
type site_stat = {
  s_counts : counts;
  s_det_steps : int; (* summed detection latency of detected runs *)
  s_det_cycles : float;
}

let zero_site = { s_counts = zero_counts; s_det_steps = 0; s_det_cycles = 0.0 }

type vulnmap = {
  v_target : target;
  v_sites : site_stat array; (* indexed by static instruction *)
  v_counts : counts; (* whole-campaign totals *)
  v_samples : int;
  v_latencies : (int * float) list; (* detected-run latencies, sample order *)
  v_escapes : (int * Propagation.escape) list; (* sample index, per SDC *)
}

(* One traced campaign sample, addressed by its global index — same RNG
   stream as {!campaign_sample}, so the record stream is byte-identical
   whether or not tracing is on. *)
let vulnmap_sample ?(fault_bits = 1) ?(site = -1) (t : target) ~seed ~sample :
    classification * fault * record * Propagation.summary =
  let rng = Rng.split_at ~seed sample in
  let dyn_index = sample_dyn_index t rng ~site in
  let cls, fault, summary =
    match t.engine with
    | Scratch -> trace_propagation ~fault_bits t rng ~dyn_index
    | Pooled | Checkpointed _ -> trace_fast ~fault_bits t rng ~dyn_index
  in
  ( cls,
    fault,
    make_record t ~sample cls fault ~steps:summary.Propagation.end_steps
      ~cycles:summary.Propagation.end_cycles,
    summary )

(* Vulnerability-map aggregation, one traced sample at a time.  Kept
   separate from the sampling loop so a sharded campaign can replay the
   reduction in global sample order: detection-latency cycle sums are
   floating-point, and only identical fold order makes the merged map
   byte-identical to the sequential one. *)
type vulnmap_builder = {
  b_target : target;
  b_sites : site_stat array;
  mutable b_counts : counts;
  mutable b_samples : int;
  mutable b_latencies : (int * float) list; (* newest first *)
  mutable b_escapes : (int * Propagation.escape) list; (* newest first *)
}

let vulnmap_builder (t : target) =
  {
    b_target = t;
    b_sites = Array.make (Array.length t.img.Machine.code) zero_site;
    b_counts = zero_counts;
    b_samples = 0;
    b_latencies = [];
    b_escapes = [];
  }

let vulnmap_add b ~sample ~static_index cls ~latency ~escape =
  (if static_index >= 0 then
     let s = b.b_sites.(static_index) in
     let dl_steps, dl_cycles =
       match latency with Some l -> l | None -> (0, 0.0)
     in
     b.b_sites.(static_index) <-
       {
         s_counts = add_count s.s_counts cls;
         s_det_steps = s.s_det_steps + dl_steps;
         s_det_cycles = s.s_det_cycles +. dl_cycles;
       });
  b.b_counts <- add_count b.b_counts cls;
  b.b_samples <- b.b_samples + 1;
  (match latency with
  | Some l -> b.b_latencies <- l :: b.b_latencies
  | None -> ());
  match (cls, escape) with
  | Sdc, Some e -> b.b_escapes <- (sample, e) :: b.b_escapes
  | _ -> ()

let vulnmap_build b : vulnmap =
  {
    v_target = b.b_target;
    v_sites = b.b_sites;
    v_counts = b.b_counts;
    v_samples = b.b_samples;
    v_latencies = List.rev b.b_latencies;
    v_escapes = List.rev b.b_escapes;
  }

(* Sample [samples] single-fault runs exactly as {!campaign} does (the
   same seed yields the same faults), but trace each injection against
   the golden run and aggregate outcomes and detection latencies per
   static site.  [on_record] streams the same per-injection records as
   {!campaign}. *)
let vulnmap_campaign ?(scope = Original_only) ?(seed = 42L) ?(fault_bits = 1)
    ?engine ?on_record ?progress ?on_stats ~samples img : vulnmap =
  let t = prepare ~scope ?engine img in
  if t.eligible_steps = 0 then
    invalid_arg "Faultsim.vulnmap_campaign: no eligible injection sites";
  let b = vulnmap_builder t in
  let every = max 1 (samples / 32) in
  for sample = 0 to samples - 1 do
    let cls, fault, record, summary =
      vulnmap_sample ~fault_bits t ~seed ~sample
    in
    let latency =
      if cls = Detected then Propagation.detection_latency summary else None
    in
    let escape =
      if cls = Sdc then Some (Propagation.explain_escape summary) else None
    in
    vulnmap_add b ~sample ~static_index:fault.static_index cls ~latency
      ~escape;
    (match on_record with Some f -> f record | None -> ());
    (match on_stats with
    | Some f when (sample + 1) mod every = 0 || sample + 1 = samples ->
      f ~spent:(sample + 1) b.b_counts
    | _ -> ());
    match progress with Some f -> f (sample + 1) samples | None -> ()
  done;
  vulnmap_build b

let mean_latency (s : site_stat) =
  if s.s_counts.detected = 0 then None
  else
    let n = float_of_int s.s_counts.detected in
    Some
      ( float_of_int s.s_det_steps /. n,
        s.s_det_cycles /. n )

(* One JSONL row per site that is sampling-eligible or was hit; ordered
   by static index, so same-seed campaigns export byte-identical
   files. *)
let vulnmap_rows (v : vulnmap) =
  let prov_name = function
    | Instr.Original -> "original"
    | Instr.Dup -> "dup"
    | Instr.Check -> "check"
    | Instr.Instrumentation -> "instr"
  in
  let rows = ref [] in
  for i = Array.length v.v_sites - 1 downto 0 do
    let s = v.v_sites.(i) in
    if v.v_target.eligible.(i) || s.s_counts.samples > 0 then begin
      let ins = v.v_target.img.Machine.code.(i) in
      let mean_steps, mean_cycles =
        match mean_latency s with Some m -> m | None -> (0.0, 0.0)
      in
      rows :=
        Json.Obj
          [
            ("static_index", Json.Int i);
            ("opcode", Json.Str (Instr.mnemonic ins.Instr.op));
            ("prov", Json.Str (prov_name ins.Instr.prov));
            ("asm", Json.Str (Printer.string_of_instr ins.Instr.op));
            ("samples", Json.Int s.s_counts.samples);
            ("benign", Json.Int s.s_counts.benign);
            ("sdc", Json.Int s.s_counts.sdc);
            ("detected", Json.Int s.s_counts.detected);
            ("crash", Json.Int s.s_counts.crash);
            ("timeout", Json.Int s.s_counts.timeout);
            ("mean_det_steps", Json.Float mean_steps);
            ("mean_det_cycles", Json.Float mean_cycles);
          ]
        :: !rows
    end
  done;
  !rows

let vulnmap_fields =
  Metrics.
    [
      field "static_index" F_int;
      field "opcode" F_string;
      field "prov" F_string;
      field "asm" F_string;
      field "samples" F_int;
      field "benign" F_int;
      field "sdc" F_int;
      field "detected" F_int;
      field "crash" F_int;
      field "timeout" F_int;
      field "mean_det_steps" F_float;
      field "mean_det_cycles" F_float;
    ]

let vulnmap_kind = "ferrum.vulnmap.v1"
