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
   incrementally), runs the pre-flip prefix unobserved, and ends a
   traced suffix once it equals its lockstep golden state
   ({!run_traced}).  [Checkpointed k] additionally restores the
   golden-run checkpoint nearest below the sampled flip point, so each
   sample pays only the suffix, and also ends an untraced suffix at the
   first golden checkpoint its state matches ({!run_suffix}). *)
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
   walks ({!prepare}, which also captures the checkpoints) and decodes
   ({!prepare} too) ran and how many machine steps went into each phase
   of the fast engines — checkpoint restores, replayed prefixes,
   post-flip suffixes.
   Deterministic for a given seed and sample set, so campaign trace
   spans can carry them as counters without breaking
   byte-reproducibility.  Reset per worker process
   ({!reset_phases}) so a shard's tally covers exactly its own work. *)
type phases = {
  mutable ph_walks : int; (* golden walks ({!prepare}) *)
  mutable ph_walk_steps : int;
  mutable ph_restores : int; (* checkpoint/initial-state restores *)
  mutable ph_prefix_steps : int; (* unobserved replay up to the flip *)
  mutable ph_forward_steps : int; (* of those, retired by the fused leg *)
  mutable ph_suffix_steps : int; (* flip + post-flip execution *)
  mutable ph_decodes : int; (* decodes of this target ({!prepare}) *)
  mutable ph_fused_steps : int; (* suffix steps retired as fused pairs *)
  mutable ph_converged : int; (* suffixes ended equal to the golden run *)
  mutable ph_skipped_steps : int; (* golden steps those suffixes skipped *)
}

let zero_phases () =
  {
    ph_walks = 0;
    ph_walk_steps = 0;
    ph_restores = 0;
    ph_prefix_steps = 0;
    ph_forward_steps = 0;
    ph_suffix_steps = 0;
    ph_decodes = 0;
    ph_fused_steps = 0;
    ph_converged = 0;
    ph_skipped_steps = 0;
  }

(* A profiled program ready for injection.  The decoded program and the
   checkpoint cache are built by {!prepare}, so campaign workers forked
   after it inherit both and never decode or walk again; the pooled
   slots are built lazily, per process. *)
type target = {
  img : Machine.image;
  eligible : bool array;
  pre : Predecode.t; (* the one decode, [eligible] as fusion [avoid] *)
  golden_output : int64 list;
  golden_steps : int;
  golden_cycles : float;
  golden_prov_cycles : float array; (* per {!Profile.provenances} *)
  eligible_steps : int; (* dynamic count of eligible write-backs *)
  dyn_static : int array; (* static site of each eligible write-back *)
  golden_checks : int; (* Check-provenance retirements *)
  checks_upto : int array; (* per block boundary b: checks in steps 1..b*B *)
  eligible_upto : int array; (* ... and eligible retirements in steps 1..b*B *)
  fuel : int;
  engine : engine;
  cache : Snapshot.cache; (* golden checkpoints (none unless checkpointed) *)
  mutable slot_ : Snapshot.slot option; (* pooled injected-run state *)
  mutable golden_slot_ : Snapshot.slot option; (* pooled lockstep golden *)
  mutable occ_ : int array array option; (* lazy per-site occurrences *)
  phases : phases; (* per-process engine-phase tallies *)
}

let phases (t : target) = t.phases

let reset_phases (t : target) =
  let p = t.phases in
  p.ph_walks <- 0;
  p.ph_walk_steps <- 0;
  p.ph_restores <- 0;
  p.ph_prefix_steps <- 0;
  p.ph_forward_steps <- 0;
  p.ph_suffix_steps <- 0;
  p.ph_decodes <- 0;
  p.ph_fused_steps <- 0;
  p.ph_converged <- 0;
  p.ph_skipped_steps <- 0

exception Golden_failure of string

(* B, the step granularity of the golden tallies: a converged traced
   run counts checks for at most this many more steps before taking the
   rest of its count from them, and a prefix single-steps at most this
   many steps before its flip. *)
let check_block = 512

(* Profile the fault-free run — output, step count, the eligible
   dynamic injection sites in order, the cycles per provenance, summed
   in retirement order as {!Profile.run} sums them, and the checker and
   eligible-site tallies per block of [check_block] steps — and, on the
   checkpointed engine, capture the golden checkpoints on the way.  This
   is the target's one golden walk, on its one decode: the eligible-site
   mask is the fusion [avoid] set, so no injection site ever sits in
   the second half of a superinstruction, and the observed walk, which
   never fuses, runs the same steps under it. *)
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
  (* Checker retirements so far, and the checker and eligible counts at
     each multiple of [check_block] steps, newest first.  The observer
     only accumulates; the walk runs in legs that end on every multiple
     of [check_block] and of the checkpoint interval, and the tallies
     and checkpoints are taken between legs, so the per-step cost stays
     what it was without them. *)
  let check = Profile.prov_index Instr.Check in
  let is_check = Array.map (fun p -> if p = check then 1 else 0) prov in
  let checks = ref 0 and upto = ref [ 0 ] and eupto = ref [ 0 ] in
  let on_step _st idx =
    let p = prov.(idx) in
    prov_cycles.(p) <- prov_cycles.(p) +. costs.(idx);
    checks := !checks + is_check.(idx);
    if eligible.(idx) then begin
      if !count = Array.length !sites then begin
        let grown = Array.make (2 * !count) 0 in
        Array.blit !sites 0 grown 0 !count;
        sites := grown
      end;
      !sites.(!count) <- idx;
      incr count
    end
  in
  let pre = Predecode.decode ~avoid:eligible img in
  let k = Option.value interval ~default:max_int in
  let next_multiple m = ((st.Machine.steps / m) + 1) * m in
  let rec walk () =
    let fuel =
      min Machine.default_fuel
        (min (next_multiple check_block) (next_multiple k))
    in
    match Predecode.exec_observed ~fuel ~on_step pre st with
    | Machine.Timeout when st.Machine.steps < Machine.default_fuel ->
      if st.Machine.steps mod check_block = 0 then begin
        upto := !checks :: !upto;
        eupto := !count :: !eupto
      end;
      Snapshot.record recorder ~seen:!count;
      walk ()
    | o -> o
  in
  let outcome = walk () in
  match outcome with
  | Machine.Exit out ->
    let steps = st.Machine.steps in
    let table last l =
      Array.of_list (List.rev (if steps mod check_block = 0 then last :: l else l))
    in
    let phases = zero_phases () in
    phases.ph_walks <- 1;
    phases.ph_walk_steps <- steps;
    phases.ph_decodes <- 1;
    {
      img;
      eligible;
      pre;
      golden_output = out;
      golden_steps = steps;
      golden_cycles = st.Machine.cycles.Machine.fv;
      golden_prov_cycles = prov_cycles;
      eligible_steps = !count;
      dyn_static = Array.sub !sites 0 !count;
      golden_checks = !checks;
      checks_upto = table !checks !upto;
      eligible_upto = table !count !eupto;
      fuel = (steps * 3) + 100_000;
      engine;
      cache = Snapshot.finish recorder ~steps;
      slot_ = None;
      golden_slot_ = None;
      occ_ = None;
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

let predecoded (t : target) = t.pre

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

(* Destination names and structured views, built once: a campaign
   sample looks its flipped destination up instead of formatting it. *)
let size_slot = function Reg.B -> 0 | Reg.W -> 1 | Reg.D -> 2 | Reg.Q -> 3

let gpr_dests =
  let a = Array.make 64 ("", None) in
  List.iter
    (fun r ->
      List.iter
        (fun s ->
          a.((Reg.gpr_index r * 4) + size_slot s) <-
            ("%" ^ Reg.gpr_name r s, Some (Igpr (r, s))))
        Reg.[ B; W; D; Q ])
    Reg.all_gprs;
  a

let simd_dests =
  Array.init 128 (fun i ->
      let x = i / 8 and lane = i mod 8 in
      (Printf.sprintf "%%%s[%d]" (Reg.xmm_name x) lane, Some (Isimd (x, lane))))

let flag_dest =
  let dest f name = ("flags." ^ name, Some (Iflag f)) in
  let zf = dest Cond.ZF "ZF" and sf = dest Cond.SF "SF"
  and cf = dest Cond.CF "CF" and of_ = dest Cond.OF "OF" in
  function Cond.ZF -> zf | Cond.SF -> sf | Cond.CF -> cf | Cond.OF -> of_

(* The values {!distinct_below} drew, in draw order.  Bounds are at
   most 64 (a register's bits), so it never overflows. *)
let picks = Array.make 64 0

(* Draw [n] distinct values below [bound] into [picks] (a repeat is
   drawn again); returns how many, [min n bound]. *)
let distinct_below rng ~n ~bound =
  let n = min n bound in
  let k = ref 0 in
  while !k < n do
    let v = Rng.int rng bound in
    let fresh = ref true in
    for i = 0 to !k - 1 do
      if picks.(i) = v then fresh := false
    done;
    if !fresh then begin
      picks.(!k) <- v;
      incr k
    end
  done;
  n

(* Flip [bits] distinct bits of the destination — the paper's model uses
   single flips; [bits > 1] reproduces its multiple-bit-upset future
   work (DESIGN.md E11).  The fault names the last bit drawn. *)
let flip_dest ~bits rng st (dest : Instr.dest) ~dyn_index ~static_index =
  match dest with
  | Instr.Dgpr (r, s) ->
    let n = distinct_below rng ~n:bits ~bound:(Reg.size_bits s) in
    for i = 0 to n - 1 do
      Machine.flip_gpr st r s ~bit:picks.(i)
    done;
    let dest_desc, dest_info =
      gpr_dests.((Reg.gpr_index r * 4) + size_slot s)
    in
    { dyn_index; static_index; dest_desc; dest_info; bit = picks.(n - 1) }
  | Instr.Dsimd (x, lanes) ->
    let lane = List.nth lanes (Rng.int rng (List.length lanes)) in
    let n = distinct_below rng ~n:bits ~bound:64 in
    for i = 0 to n - 1 do
      Machine.flip_simd_lane st x ~lane ~bit:picks.(i)
    done;
    let dest_desc, dest_info = simd_dests.((x * 8) + lane) in
    { dyn_index; static_index; dest_desc; dest_info; bit = picks.(n - 1) }
  | Instr.Dflags flags ->
    let n = distinct_below rng ~n:bits ~bound:(List.length flags) in
    for i = 0 to n - 1 do
      Machine.flip_flag st (List.nth flags picks.(i))
    done;
    let dest_desc, dest_info = flag_dest (List.nth flags picks.(n - 1)) in
    { dyn_index; static_index; dest_desc; dest_info; bit = 0 }

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
  flip_dest ~bits:fault_bits rng st d ~dyn_index ~static_index:idx

(* The scratch path: run the target once from a fresh state, flipping
   one bit at the [dyn_index]-th eligible write-back.  [on_inject] is
   called right after the flip with the already-corrupted state;
   [observe] (e.g. a {!Ferrum_machine.Flight} recorder or a
   {!Ferrum_telemetry.Propagation} tracer) is called after the injection
   logic on every retired instruction, so it sees post-flip state.
   Returns the classification, the fault description and the final
   machine state. *)
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
  let outcome = Predecode.exec_observed ~fuel:t.fuel ~on_step t.pre st in
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
(* Propagation tracing.                                                *)
(* ------------------------------------------------------------------ *)

module Propagation = Ferrum_telemetry.Propagation

(* Like {!inject_full}, but with a golden run executing in lockstep:
   returns the propagation summary (first divergence, taint spread,
   detection latency, escape timeline) alongside the classification.
   The scratch engine's traced path, and the oracle the fast one
   ({!inject_fast} [~traced:true]) is tested against. *)
let trace_full ?fault_bits (t : target) rng ~dyn_index =
  let tracer = Propagation.create t.pre t.img in
  let cls, fault, st =
    inject_full ?fault_bits
      ~on_inject:(Propagation.note_injection tracer)
      ~observe:(Propagation.observe tracer) t rng ~dyn_index
  in
  (cls, fault, st, Propagation.finish tracer st)

let trace_propagation ?fault_bits (t : target) rng ~dyn_index :
    classification * fault * Propagation.summary =
  let cls, fault, _, s = trace_full ?fault_bits t rng ~dyn_index in
  (cls, fault, s)

(* ------------------------------------------------------------------ *)
(* Fast injection: pooled states, unobserved prefix, checkpoints.      *)
(* ------------------------------------------------------------------ *)

(* Single-step [st] unobserved until it is positioned at the flip site
   — the next instruction is eligible and [!seen = dyn_index] — or the
   run ends first.  Returns [None] when positioned (the flip
   instruction has *not* executed yet; {!Predecode.step1} reports the
   pre-step ip, so stopping on [st.ip] is exact), or [Some outcome]
   mirroring {!Predecode.exec}'s fuel / wild-control / halt / trap
   semantics, in its check order (fuel before bounds).  Unfused, so
   the stop-at-site check runs before every instruction. *)
let rec step_prefix (t : target) pre len st seen ~dyn_index =
  if st.Machine.steps >= t.fuel then Some Machine.Timeout
  else
    let ip = st.Machine.ip in
    if ip >= len || ip < 0 then
      Some (Machine.Crash (Printf.sprintf "control reached 0x%x" ip))
    else if t.eligible.(ip) && seen = dyn_index then None
    else
      match Predecode.step1 pre st with
      | exception Machine.Halt o -> Some o
      | exception Machine.Trap m -> Some (Machine.Crash m)
      | idx ->
        let seen = if t.eligible.(idx) then seen + 1 else seen in
        step_prefix t pre len st seen ~dyn_index

(* The block of [check_block] steps that holds the flip: the last [b]
   whose start precedes it ([eligible_upto.(b) <= dyn_index];
   [eligible_upto.(0) = 0]). *)
let flip_block (t : target) ~dyn_index =
  let e = t.eligible_upto in
  let lo = ref 0 and hi = ref (Array.length e) in
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) / 2 in
    if e.(mid) <= dyn_index then lo := mid else hi := mid
  done;
  !lo

(* Position the restored [st] at the flip site, as {!step_prefix} does.
   The prefix is the golden run, so up to the start of the flip's block
   it runs fused and unobserved ({!Predecode.exec}; fused pairs check
   fuel between their halves, so it stops exactly there, and an
   eligible site is never a second half), and [seen] is then that
   block's golden tally.  Only the rest, at most [check_block] steps,
   is single-stepped — all of it when the restored checkpoint already
   lies at or past the block start. *)
let run_prefix (t : target) pre st ~seen ~dyn_index =
  let b = flip_block t ~dyn_index in
  let start = b * check_block and s0 = st.Machine.steps in
  let forwarded, seen =
    if s0 >= start then (Machine.Timeout, seen)
    else (Predecode.exec ~fuel:start pre st, t.eligible_upto.(b))
  in
  t.phases.ph_forward_steps <-
    t.phases.ph_forward_steps + (st.Machine.steps - s0);
  match forwarded with
  | Machine.Timeout ->
    step_prefix t pre (Array.length t.img.Machine.code) st seen ~dyn_index
  | o -> Some o

(* A suffix whose state equals the golden run's at the same step ends
   as the golden run does: its output, steps and cycles.  The golden
   steps it skips are tallied apart; the caller counts suffix steps off
   the final step count, so they are taken back out of those. *)
let end_as_golden (t : target) st =
  let ph = t.phases and skipped = t.golden_steps - st.Machine.steps in
  ph.ph_converged <- ph.ph_converged + 1;
  ph.ph_skipped_steps <- ph.ph_skipped_steps + skipped;
  ph.ph_suffix_steps <- ph.ph_suffix_steps - skipped;
  st.Machine.steps <- t.golden_steps;
  st.Machine.cycles.Machine.fv <- t.golden_cycles;
  Machine.Exit t.golden_output

(* Run the post-flip suffix unobserved, in legs that end on the golden
   checkpoints' step counts (fused pairs check fuel between their
   halves, so a leg stops exactly there).  At each boundary the state is
   compared with the golden checkpoint; once they match the rest of the
   run *is* the golden run — the machine is a deterministic function of
   the state {!Snapshot.converged} compares — so it ends there as the
   golden run does, with its output, steps and cycles.  Without
   checkpoints (the pooled engine) this is one plain leg. *)
let rec suffix_legs (t : target) pre sl st c =
  let cache = t.cache in
  if c >= Snapshot.ckpt_count cache then Predecode.exec ~fuel:t.fuel pre st
  else
    match Predecode.exec ~fuel:(Snapshot.ckpt_steps cache c) pre st with
    | Machine.Timeout when Snapshot.converged sl c -> end_as_golden t st
    | Machine.Timeout -> suffix_legs t pre sl st (c + 1)
    | o -> o

let run_suffix (t : target) pre sl st =
  suffix_legs t pre sl st (Snapshot.next_ckpt t.cache ~steps:st.Machine.steps)

exception Traced_converged

exception Check_found

(* The rest of a traced run whose state equals its lockstep golden
   state after [st.steps] retirements: the golden run's.  Step on,
   unobserved by the tracer, to the next multiple of [check_block]
   counting checker retirements, take the count after that boundary
   from [prepare]'s tallies, fold both into the tracer and end as the
   golden run ends.  Should the tracer still lack a first check after
   the divergence and none retired on the way, step on to it.  A run
   that halts before the boundary has simply finished, its own outcome
   and checkers exact. *)
let converge_traced (t : target) pre tracer st =
  let code = t.img.Machine.code in
  let checks = ref 0 and first = ref (-1) in
  let on_step (st : Machine.state) idx =
    if code.(idx).Instr.prov = Instr.Check then begin
      if !first < 0 then first := st.Machine.steps;
      incr checks
    end
  in
  let b = (st.Machine.steps + check_block - 1) / check_block in
  let outcome =
    Predecode.exec_observed ~fuel:(b * check_block) ~on_step pre st
  in
  let first_check () = if !first < 0 then None else Some !first in
  match outcome with
  | Machine.Timeout ->
    let first_check () =
      (if !first < 0 then
         let stop st idx =
           on_step st idx;
           if !first >= 0 then raise_notrace Check_found
         in
         try ignore (Predecode.exec_observed ~fuel:t.fuel ~on_step:stop pre st)
         with Check_found -> ());
      first_check ()
    in
    Propagation.converge tracer
      ~checks:(!checks + t.golden_checks - t.checks_upto.(b))
      ~first_check;
    end_as_golden t st
  | o ->
    Propagation.converge tracer ~checks:!checks ~first_check;
    o

(* The traced suffix: the tracer observes every retirement until the
   run ends, or until {!Snapshot.identical} — asked each time the tracer
   turns {!Propagation.clean} — finds it equal to its lockstep golden
   state again ({!converge_traced}). *)
let run_traced (t : target) pre tracer sl gsl st =
  let was_clean = ref false in
  let on_step st idx =
    Propagation.observe tracer st idx;
    let clean = Propagation.clean tracer in
    if clean && (not !was_clean) && Snapshot.identical sl gsl then
      raise_notrace Traced_converged;
    was_clean := clean
  in
  match Predecode.exec_observed ~fuel:t.fuel ~on_step pre st with
  | o -> o
  | exception Traced_converged -> converge_traced t pre tracer st

(* Flip at the site [st] just retired and, traced, show the tracer the
   flip and that retirement. *)
let flip_at ~fault_bits t rng tracer st ~dyn_index idx =
  let fault = apply_flip ~fault_bits t rng st ~dyn_index idx in
  (match tracer with
  | Some tr ->
    Propagation.note_injection tr st;
    Propagation.observe tr st idx
  | None -> ());
  fault

(* {!inject_full}'s exact semantics on a pooled, checkpoint-restored
   state: restore the nearest checkpoint at or below the flip point, run
   the remaining prefix unobserved, execute the flip instruction, flip,
   and run the suffix ({!run_suffix}).  Steps, cycles and fuel all count
   from program start because the restored checkpoint carries them.
   The pooled slot's state is returned, but only its final steps and
   cycles count: once the suffix has converged nothing else in it is
   meaningful.

   [traced] gives {!trace_propagation}'s summary too, for less work.
   The tracer's observation of the pre-flip prefix is a no-op — injected
   and golden states are bit-identical until the flip, so no divergence,
   no taint, nothing recorded — which is what licenses skipping it: the
   lockstep golden state is reconstructed at the flip site by restoring
   a second slot to the same checkpoint and syncing the injected run's
   dirty pages and registers onto it, and the tracer starts observing at
   the flip instruction.  The suffix ({!run_traced}) ends lockstep at
   convergence: whenever the tracer's taint sets empty, an exact state
   compare decides whether the run now equals its golden run, and if so
   it counts the remaining checkers off the golden tallies
   ({!converge_traced}) and finishes with the golden output, steps and
   cycles, the exit counted in [ph_converged]/[ph_skipped_steps]. *)
let inject_fast ~traced ~fault_bits (t : target) rng ~dyn_index =
  let ph = t.phases in
  let sl = slot t in
  let seen = Snapshot.restore sl ~dyn_index in
  let st = Snapshot.state sl in
  let pre = t.pre in
  ph.ph_restores <- ph.ph_restores + 1;
  let s0 = st.Machine.steps in
  let reached = run_prefix t pre st ~seen ~dyn_index in
  ph.ph_prefix_steps <- ph.ph_prefix_steps + (st.Machine.steps - s0);
  match reached with
  | Some o ->
    (* Site unreached: a traced run never diverged, so its summary is
       that of a tracer that observed nothing.  Such a tracer never
       steps its golden replica, so the run's own state stands in for
       it rather than a fresh machine state. *)
    let summary =
      if not traced then None
      else
        Some (Propagation.finish (Propagation.create ~golden:st t.pre t.img) st)
    in
    (classify t o, unreached_fault dyn_index, st, summary)
  | None ->
    let s1 = st.Machine.steps and f0 = Predecode.fused_steps () in
    let tracer =
      if not traced then None
      else begin
        let gsl = golden_slot t in
        ignore (Snapshot.restore gsl ~dyn_index : int);
        ph.ph_restores <- ph.ph_restores + 1;
        Snapshot.sync ~src:sl gsl;
        Some (Propagation.create ~golden:(Snapshot.state gsl) t.pre t.img)
      end
    in
    let idx = st.Machine.ip in
    let cls, fault =
      match Predecode.step1 pre st with
      | _retired ->
        let fault = flip_at ~fault_bits t rng tracer st ~dyn_index idx in
        let outcome =
          match tracer with
          | None -> run_suffix t pre sl st
          | Some tr -> run_traced t pre tr sl (golden_slot t) st
        in
        (classify t outcome, fault)
      | exception Machine.Halt o ->
        (* Unreachable in practice — halting instructions define no
           destinations, so they are never eligible — but mirror
           {!Predecode.exec_observed}, whose observer fires on the
           halting step. *)
        let fault = flip_at ~fault_bits t rng tracer st ~dyn_index idx in
        (classify t o, fault)
      | exception Machine.Trap m ->
        (* A trapped step is never observed by {!Predecode.exec_observed}:
           no flip, no RNG draws, the fault stays unreached. *)
        (classify t (Machine.Crash m), unreached_fault dyn_index)
    in
    ph.ph_fused_steps <- ph.ph_fused_steps + (Predecode.fused_steps () - f0);
    ph.ph_suffix_steps <- ph.ph_suffix_steps + (st.Machine.steps - s1);
    let summary =
      match tracer with
      | Some tr -> Some (Propagation.finish tr st)
      | None -> None
    in
    (cls, fault, st, summary)

(* One sample on the target's engine — the only place that dispatches
   on it.  Returns the class, the fault, the run's final state (its
   steps and cycles are the record's) and, when [traced], the
   propagation summary. *)
let run_sample ~traced ~fault_bits (t : target) rng ~dyn_index =
  match t.engine with
  | Pooled | Checkpointed _ -> inject_fast ~traced ~fault_bits t rng ~dyn_index
  | Scratch when traced ->
    let cls, fault, st, s = trace_full ~fault_bits t rng ~dyn_index in
    (cls, fault, st, Some s)
  | Scratch ->
    let cls, fault, st = inject_full ~fault_bits t rng ~dyn_index in
    (cls, fault, st, None)

let inject ?(fault_bits = 1) (t : target) rng ~dyn_index :
    classification * fault =
  let cls, fault, _, _ =
    run_sample ~traced:false ~fault_bits t rng ~dyn_index
  in
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

(* [Json.to_string (record_to_json r)], appended to [buf] without
   building the tree: a campaign worker renders every record it ships
   this way, into one buffer it reuses. *)
let write_record buf r =
  let dest_kind, dest_reg, dest_lane, dest_flag = dest_info_fields r.r_dest in
  let add = Buffer.add_string in
  add buf "{\"sample\":";
  Json.add_int buf r.sample;
  add buf ",\"dyn_index\":";
  Json.add_int buf r.r_dyn_index;
  add buf ",\"static_index\":";
  Json.add_int buf r.r_static_index;
  add buf ",\"opcode\":";
  Json.add_string buf r.opcode;
  add buf ",\"dest\":";
  Json.add_string buf r.dest;
  add buf ",\"dest_kind\":";
  Json.add_string buf dest_kind;
  add buf ",\"dest_reg\":";
  Json.add_int buf dest_reg;
  add buf ",\"dest_lane\":";
  Json.add_int buf dest_lane;
  add buf ",\"dest_flag\":";
  Json.add_int buf dest_flag;
  add buf ",\"bit\":";
  Json.add_int buf r.r_bit;
  add buf ",\"class\":";
  Json.add_string buf (classification_name r.r_class);
  add buf ",\"steps\":";
  Json.add_int buf r.steps;
  add buf ",\"cycles\":";
  Json.add_float buf r.cycles;
  Buffer.add_char buf '}'

(* Schema of one record line, for `ferrum metrics` and the smoke
   check. *)
let record_fields =
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
      field "dest_kind" F_string;
      field "dest_reg" F_int;
      field "dest_lane" F_int;
      field "dest_flag" F_int;
    ]

let metrics_kind = "ferrum.injection.v2"

(* ------------------------------------------------------------------ *)
(* Campaign samples.                                                   *)
(* ------------------------------------------------------------------ *)

(* The record of one injected run, from its final state [st], shared by
   the plain and the traced campaign paths, so both render
   byte-identical record streams. *)
let make_record (t : target) ~sample cls (fault : fault) (st : Machine.state) :
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
    steps = st.Machine.steps;
    cycles = st.Machine.cycles.Machine.fv;
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
   shards is the same for any shard count. *)
let campaign_sample ?(fault_bits = 1) ?(site = -1) (t : target) ~seed ~sample :
    classification * fault * record =
  let rng = Rng.split_at ~seed sample in
  let dyn_index = sample_dyn_index t rng ~site in
  let cls, fault, st, _ =
    run_sample ~traced:false ~fault_bits t rng ~dyn_index
  in
  (cls, fault, make_record t ~sample cls fault st)

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
  v_escapes : (int * int * Propagation.escape) list;
      (* sample index and static site, per SDC *)
}

(* One traced campaign sample, addressed by its global index — same RNG
   stream as {!campaign_sample}, so the record stream is byte-identical
   whether or not tracing is on. *)
let vulnmap_sample ?(fault_bits = 1) ?(site = -1) (t : target) ~seed ~sample :
    classification * fault * record * Propagation.summary =
  let rng = Rng.split_at ~seed sample in
  let dyn_index = sample_dyn_index t rng ~site in
  let cls, fault, st, summary =
    run_sample ~traced:true ~fault_bits t rng ~dyn_index
  in
  (cls, fault, make_record t ~sample cls fault st, Option.get summary)

(* Vulnerability-map aggregation, one traced sample at a time, fed by
   a campaign's merge step in global sample order: detection-latency
   cycle sums are floating-point, and only that one fold order makes
   the map byte-identical for any shard count. *)
type vulnmap_builder = {
  b_target : target;
  b_sites : site_stat array;
  mutable b_counts : counts;
  mutable b_samples : int;
  mutable b_latencies : (int * float) list; (* newest first *)
  mutable b_escapes : (int * int * Propagation.escape) list; (* newest first *)
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
  | Sdc, Some e -> b.b_escapes <- (sample, static_index, e) :: b.b_escapes
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
