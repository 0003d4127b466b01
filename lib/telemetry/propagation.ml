(* Fault-propagation tracing.

   Re-executes the golden (fault-free) run in lockstep with a faulted
   run, from inside the fault injector's per-step observer: after every
   retired instruction the golden machine executes the same instruction,
   and the two architectural states are compared at exactly the
   locations that instruction wrote.  The set of differing locations is
   the *tainted set* — GPRs, SIMD lanes, flag bits and memory bytes the
   flip has reached.  Because both machines are deterministic, the
   incremental comparison is exact while control flow agrees: a location
   can only change when written, so taint is added and removed precisely
   at write-backs (a corrupted value overwritten by an equal one is
   "masked").

   When the two instruction pointers separate (a conditional read a
   tainted flag, or the golden run exits while the faulted run lives
   on), per-location comparison stops being meaningful; the tracer
   records the control divergence and from then on only watches the
   faulted run for checker executions and output events.

   A tracer is made once per image and reused by every run it traces
   ({!start}).  Its per-instruction tables resolve what each static
   instruction writes, and its tainted set is dense: one bitset over the
   register file's slots and one over the memory bytes, each with a
   count, so a lockstep step allocates nothing.  A run traced only for
   its escape class stops once that class is decided ({!decided},
   {!observe_escape}).

   The resulting {!summary} answers the questions the final
   classification cannot: where the flip first became architecturally
   visible, how far it spread, whether it reached ECC-protected memory
   or program output before a checker ran, and — for detected runs — the
   *detection latency* in retired instructions and model cycles, the
   paper's "fast" claim as a per-injection measurement (cf. DME's
   trace-divergence framing and FastFlip's per-site outcome analysis). *)

open Ferrum_asm
module Machine = Ferrum_machine.Machine
module Predecode = Ferrum_machine.Predecode

(* ------------------------------------------------------------------ *)
(* Tainted locations.                                                  *)
(* ------------------------------------------------------------------ *)

type loc =
  | Lgpr of Reg.gpr
  | Lsimd of int * int (* register, 64-bit lane *)
  | Lflag of Cond.flag
  | Lmem of int (* byte address *)

let flag_name = function
  | Cond.ZF -> "ZF"
  | Cond.SF -> "SF"
  | Cond.CF -> "CF"
  | Cond.OF -> "OF"

let loc_name = function
  | Lgpr r -> Printf.sprintf "%%%s" (Reg.gpr_name r Reg.Q)
  | Lsimd (x, lane) -> Printf.sprintf "%%%s[%d]" (Reg.xmm_name x) lane
  | Lflag f -> Printf.sprintf "flags.%s" (flag_name f)
  | Lmem a -> Printf.sprintf "mem[0x%x]" a

type divergence = {
  div_step : int; (* dynamic instruction number of the write-back *)
  div_static : int; (* static index of the diverging instruction *)
  div_locs : loc list; (* locations that first differed, write order *)
}

(* ------------------------------------------------------------------ *)
(* Dense taint sets.                                                   *)
(* ------------------------------------------------------------------ *)

(* The register-file locations are the slots of one dense set: the 16
   GPRs by encoding, then the 16 x 8 SIMD lanes ([reg * 8 + lane]),
   then the flags ZF, SF, CF and OF.  Memory has a set of its own, one
   bit per byte. *)
let simd_base = 16

let flag_base = simd_base + 128

let reg_slots = flag_base + 4

let flag_slot = function
  | Cond.ZF -> 0
  | Cond.SF -> 1
  | Cond.CF -> 2
  | Cond.OF -> 3

let loc_of_slot s =
  if s < simd_base then Lgpr (Reg.gpr_of_index s)
  else if s < flag_base then
    Lsimd ((s - simd_base) / 8, (s - simd_base) mod 8)
  else
    Lflag
      (match s - flag_base with
      | 0 -> Cond.ZF
      | 1 -> Cond.SF
      | 2 -> Cond.CF
      | _ -> Cond.OF)

let bit_mem b i = Char.code (Bytes.get b (i lsr 3)) land (1 lsl (i land 7)) <> 0

let bit_flip b i =
  let j = i lsr 3 in
  Bytes.set b j
    (Char.unsafe_chr (Char.code (Bytes.get b j) lxor (1 lsl (i land 7))))

(* What the instruction at a static index stores to memory, its address
   registers resolved to encodings (-1: absent), so that the per-step
   comparison computes the address without allocating. *)
type store =
  | No_store
  | Store of { base : int; index : int; scale : int; disp : int; width : int }
  | Stack_slot (* push/call: the 8 bytes at the new top of stack *)

let store_of (m : Instr.mem) s =
  let reg = function Some r -> Reg.gpr_index r | None -> -1 in
  Store
    { base = reg m.Instr.base; index = reg m.Instr.index; scale = m.Instr.scale;
      disp = m.Instr.disp; width = Reg.size_bytes s }

(* Per-instruction marks: a checker, a print. *)
let is_check = 1

let is_print = 2

(* ------------------------------------------------------------------ *)
(* Tracer state.                                                       *)
(* ------------------------------------------------------------------ *)

type phase = Lockstep | Diverged

(* One traced run's timeline, made afresh by {!start}. *)
type run = {
  mutable newly : loc list; (* this step's new taint, before a divergence *)
  mutable phase : phase;
  mutable lockstep : int; (* steps the replica took beside this run *)
  mutable golden_exited : bool;
  mutable injected_at : int option;
  mutable injected_cycles : float;
  mutable first_divergence : divergence option;
  mutable control_diverged_at : int option;
  mutable peak_taint : int;
  mutable first_mem_taint_at : int option;
  mutable first_output_divergence_at : int option;
  mutable first_check_after_divergence : int option;
  mutable checks_after_divergence : int;
  mutable tainted_checks : int;
  mutable masked_at : int option;
  mutable reactivated_at : int option;
}

let new_run () =
  {
    newly = [];
    phase = Lockstep;
    lockstep = 0;
    golden_exited = false;
    injected_at = None;
    injected_cycles = 0.0;
    first_divergence = None;
    control_diverged_at = None;
    peak_taint = 0;
    first_mem_taint_at = None;
    first_output_divergence_at = None;
    first_check_after_divergence = None;
    checks_after_divergence = 0;
    tainted_checks = 0;
    masked_at = None;
    reactivated_at = None;
  }

type t = {
  pre : Predecode.t; (* the image's decode, which steps the golden replica *)
  has_checks : bool;
  dest_slots : int array array; (* per static index: slots it writes *)
  stores : store array; (* per static index: its memory write *)
  marks : Bytes.t; (* per static index: [is_check] lor [is_print] *)
  regs : Bytes.t; (* register-file taint, a bit per slot *)
  mutable reg_count : int;
  mem : Bytes.t; (* memory taint, a bit per byte, and a byte to spare *)
  mutable mem_count : int;
  pages : Bytes.t; (* a bit per page in which a bit of [mem] was set *)
  page_log : int array; (* those pages, [logged] of them *)
  mutable logged : int;
  mutable golden : Machine.state option; (* the replica, once started *)
  mutable r : run;
}

let create ~has_checks pre (img : Machine.image) =
  let slots = function
    | Instr.Dgpr (r, _) -> [ Reg.gpr_index r ]
    | Instr.Dsimd (x, lanes) ->
      List.map (fun lane -> simd_base + (x * 8) + lane) lanes
    | Instr.Dflags flags -> List.map (fun f -> flag_base + flag_slot f) flags
  in
  let store idx (ins : Instr.ins) =
    match ins.Instr.op with
    | Instr.Mov (s, _, Instr.Mem m)
    | Instr.Alu (_, s, _, Instr.Mem m)
    | Instr.Shift (_, s, _, Instr.Mem m)
    | Instr.Neg (s, Instr.Mem m)
    | Instr.Not (s, Instr.Mem m) ->
      store_of m s
    | Instr.Set (_, Instr.Mem m) -> store_of m Reg.B
    | Instr.Push _ -> Stack_slot
    | Instr.Call _ -> (
      match img.Machine.links.(idx) with
      | Machine.L_call _ -> Stack_slot
      | _ -> No_store)
    | _ -> No_store
  in
  let mark idx (ins : Instr.ins) =
    (if ins.Instr.prov = Instr.Check then is_check else 0)
    lor
    match img.Machine.links.(idx) with Machine.L_print -> is_print | _ -> 0
  in
  let code = img.Machine.code and size = img.Machine.mem_size in
  let pages = (size + Machine.page_size - 1) / Machine.page_size in
  {
    pre;
    has_checks;
    dest_slots =
      Array.map (fun ds -> Array.of_list (List.concat_map slots ds))
        img.Machine.dests;
    stores = Array.mapi store code;
    marks =
      Bytes.init (Array.length code) (fun i -> Char.chr (mark i code.(i)));
    regs = Bytes.make ((reg_slots + 7) / 8) '\000';
    reg_count = 0;
    mem = Bytes.make ((size / 8) + 2) '\000';
    mem_count = 0;
    pages = Bytes.make ((pages + 7) / 8) '\000';
    page_log = Array.make pages 0;
    logged = 0;
    golden = None;
    r = new_run ();
  }

(* Begin a run.  Of the memory set, only the pages in which a bit was
   set are cleared. *)
let start t ~golden =
  let page_bytes = Machine.page_size / 8 in
  for k = 0 to t.logged - 1 do
    let p = t.page_log.(k) in
    let off = p * page_bytes in
    Bytes.fill t.mem off (min page_bytes (Bytes.length t.mem - off)) '\000';
    bit_flip t.pages p
  done;
  t.logged <- 0;
  t.mem_count <- 0;
  Bytes.fill t.regs 0 (Bytes.length t.regs) '\000';
  t.reg_count <- 0;
  t.golden <- Some golden;
  t.r <- new_run ()

let unset = function None -> true | Some _ -> false

let diverged r = not (unset r.first_divergence)

(* Called by the injector right after it flips the bit(s), before the
   per-step observation of the same instruction. *)
let note_injection t (st : Machine.state) =
  let r = t.r in
  if unset r.injected_at then begin
    r.injected_at <- Some st.Machine.steps;
    r.injected_cycles <- st.Machine.cycles.Machine.fv
  end

(* ------------------------------------------------------------------ *)
(* Write-back comparison.                                              *)
(* ------------------------------------------------------------------ *)

(* Set slot [s]'s taint to [differs].  Until the first divergence, a
   location newly tainted is collected in [newly], in write order. *)
let taint_slot t s ~differs =
  if differs <> bit_mem t.regs s then begin
    bit_flip t.regs s;
    if differs then begin
      t.reg_count <- t.reg_count + 1;
      let r = t.r in
      if not (diverged r) then r.newly <- loc_of_slot s :: r.newly
    end
    else t.reg_count <- t.reg_count - 1
  end

(* Whether the bytes [lo .. hi] of two memories are equal, for a range
   of 1, 2, 4 or 8 bytes; [false] (not known) for the other lengths a
   clip can leave. *)
let same_bytes m g lo hi =
  match hi - lo with
  | 7 -> Int64.equal (Bytes.get_int64_ne m lo) (Bytes.get_int64_ne g lo)
  | 3 -> Int32.equal (Bytes.get_int32_ne m lo) (Bytes.get_int32_ne g lo)
  | 1 -> Bytes.get_uint16_ne m lo = Bytes.get_uint16_ne g lo
  | 0 -> Bytes.get m lo = Bytes.get g lo
  | _ -> false

(* Compare the [n <= 8] bytes at [a0] (clipped to memory) across the
   two runs.  Comparing the same byte address in both memories is right
   whichever run wrote it.  Most stores leave both runs equal and
   untainted there: one compare of the bytes and one 16-bit read of
   their taint bits (the bitset has a byte to spare) settle that. *)
let compare_bytes t (st : Machine.state) (g : Machine.state) a0 n =
  let m = st.Machine.mem and g = g.Machine.mem in
  let lo = max 0 a0 and hi = min (Bytes.length m - 1) (a0 + n - 1) in
  if
    lo <= hi
    && not
         ((Bytes.get_uint16_le t.mem (lo lsr 3) lsr (lo land 7))
          land ((1 lsl (hi - lo + 1)) - 1)
          = 0
         && same_bytes m g lo hi)
  then
    for a = lo to hi do
      let differs = Bytes.get m a <> Bytes.get g a in
      if differs <> bit_mem t.mem a then begin
        bit_flip t.mem a;
        if differs then begin
          t.mem_count <- t.mem_count + 1;
          let p = a lsr Machine.page_bits in
          if not (bit_mem t.pages p) then begin
            bit_flip t.pages p;
            t.page_log.(t.logged) <- p;
            t.logged <- t.logged + 1
          end;
          let r = t.r in
          if not (diverged r) then r.newly <- Lmem a :: r.newly
        end
        else t.mem_count <- t.mem_count - 1
      end
    done

(* The address of a store, evaluated under one state's registers; in
   native ints, which wrap as [Int64.to_int] of the 64-bit sum does. *)
let address (st : Machine.state) ~base ~index ~scale ~disp =
  (if base < 0 then 0 else Int64.to_int st.Machine.gpr.{base})
  + (if index < 0 then 0 else Int64.to_int st.Machine.gpr.{index} * scale)
  + disp

let rsp = Reg.gpr_index Reg.RSP

let flag_differs (a : Machine.state) (b : Machine.state) = function
  | 0 -> a.Machine.zf <> b.Machine.zf
  | 1 -> a.Machine.sf <> b.Machine.sf
  | 2 -> a.Machine.cf <> b.Machine.cf
  | _ -> a.Machine.off <> b.Machine.off

(* Compare every location the instruction at [idx] wrote and update the
   taint sets.  A tainted base register makes the faulted store land
   elsewhere, so the store's bytes are compared at its address under
   each state's registers (once when the two agree). *)
let compare_writes t (st : Machine.state) (g : Machine.state) idx =
  let slots = t.dest_slots.(idx) in
  for k = 0 to Array.length slots - 1 do
    let s = slots.(k) in
    let differs =
      if s < simd_base then
        not (Int64.equal st.Machine.gpr.{s} g.Machine.gpr.{s})
      else if s < flag_base then
        let i = s - simd_base in
        not (Int64.equal st.Machine.simd.{i} g.Machine.simd.{i})
      else flag_differs st g (s - flag_base)
    in
    taint_slot t s ~differs
  done;
  match t.stores.(idx) with
  | No_store -> ()
  | Store { base; index; scale; disp; width } ->
    let a = address st ~base ~index ~scale ~disp in
    let b = address g ~base ~index ~scale ~disp in
    compare_bytes t st g a width;
    if b <> a then compare_bytes t st g b width
  | Stack_slot ->
    let a = Int64.to_int st.Machine.gpr.{rsp} in
    let b = Int64.to_int g.Machine.gpr.{rsp} in
    compare_bytes t st g a 8;
    if b <> a then compare_bytes t st g b 8

(* ------------------------------------------------------------------ *)
(* Per-step bookkeeping.                                               *)
(* ------------------------------------------------------------------ *)

let mark_control_divergence r (st : Machine.state) idx =
  if r.phase = Lockstep then begin
    r.phase <- Diverged;
    r.control_diverged_at <- Some st.Machine.steps;
    if not (diverged r) then
      r.first_divergence <-
        Some
          { div_step = st.Machine.steps; div_static = idx; div_locs = [] }
  end

let taint_bookkeeping t (st : Machine.state) idx =
  let r = t.r and rt = t.reg_count and mt = t.mem_count in
  (match r.newly with
  | [] -> ()
  | newly ->
    r.first_divergence <-
      Some
        { div_step = st.Machine.steps; div_static = idx;
          div_locs = List.rev newly };
    r.newly <- []);
  if mt > 0 && unset r.first_mem_taint_at then
    r.first_mem_taint_at <- Some st.Machine.steps;
  if rt + mt > r.peak_taint then r.peak_taint <- rt + mt;
  if diverged r then
    if rt = 0 && mt > 0 && unset r.masked_at then
      r.masked_at <- Some st.Machine.steps
    else if rt > 0 && (not (unset r.masked_at)) && unset r.reactivated_at then
      r.reactivated_at <- Some st.Machine.steps

(* Checker and output events; valid in both phases.  After a control
   divergence the comparison against the golden output is no longer
   available, so any print on the separated path counts as a corrupted
   output event (it is wrong-path, or at best unverifiable). *)
let note_instruction t (st : Machine.state) (g : Machine.state) idx =
  let r = t.r and mark = Char.code (Bytes.get t.marks idx) in
  if mark land is_check <> 0 && diverged r then begin
    r.checks_after_divergence <- r.checks_after_divergence + 1;
    if unset r.first_check_after_divergence then
      r.first_check_after_divergence <- Some st.Machine.steps;
    if t.reg_count > 0 || t.mem_count > 0 then
      r.tainted_checks <- r.tainted_checks + 1
  end;
  if
    mark land is_print <> 0
    && unset r.first_output_divergence_at
    && diverged r
  then
    let differs =
      match r.phase with
      | Diverged -> true
      | Lockstep -> (
        match (st.Machine.out_rev, g.Machine.out_rev) with
        | a :: _, b :: _ -> not (Int64.equal a b)
        | _ -> true)
    in
    if differs then r.first_output_divergence_at <- Some st.Machine.steps

(* The observer to pass to the injector (it sees post-flip state). *)
let observe t (st : Machine.state) idx =
  let g =
    match t.golden with
    | Some g -> g
    | None -> invalid_arg "Propagation.observe: no run started"
  in
  let r = t.r in
  match r.phase with
  | Diverged -> note_instruction t st g idx
  | Lockstep ->
    if r.golden_exited || g.Machine.ip <> idx then
      (* the faulted run retired an instruction the golden run did not *)
      mark_control_divergence r st idx
    else begin
      r.lockstep <- r.lockstep + 1;
      (match Predecode.step1 t.pre g with
      | (_ : int) -> ()
      | exception Machine.Halt _ -> r.golden_exited <- true
      | exception Machine.Trap _ ->
        (* unreachable on the fault-free path; treat as an exit *)
        r.golden_exited <- true);
      compare_writes t st g idx;
      taint_bookkeeping t st idx;
      note_instruction t st g idx;
      (* If both runs halt on this very instruction no further observe
         arrives and lockstep simply ends; only an IP mismatch while
         both are alive is a control divergence. *)
      if (not r.golden_exited) && st.Machine.ip <> g.Machine.ip then
        mark_control_divergence r st idx
    end

(* Whether {!explain_escape} of the run's summary is settled, whatever
   the run does next.  Past the program's checkers, its tests read a
   counter that only grows, [reactivated_at], which only a lockstep step
   sets, and steps compared with the first check after the divergence,
   which every later step follows. *)
let decided t =
  let r = t.r in
  t.has_checks
  && r.checks_after_divergence > 0
  && ((not (unset r.reactivated_at)) || r.phase = Diverged)

exception Decided

let observe_escape t st idx =
  observe t st idx;
  if decided t then raise_notrace Decided

let lockstep_steps t = t.r.lockstep

(* ------------------------------------------------------------------ *)
(* Summaries.                                                          *)
(* ------------------------------------------------------------------ *)

type summary = {
  program_has_checks : bool;
  injected_at : int option;
  injected_cycles : float;
  first_divergence : divergence option;
  control_diverged_at : int option;
  peak_taint : int;
  reg_taint_at_end : int;
  mem_taint_at_end : int;
  first_mem_taint_at : int option;
  first_output_divergence_at : int option;
  first_check_after_divergence : int option;
  checks_after_divergence : int;
  tainted_checks : int;
  masked_at : int option;
  reactivated_at : int option;
  end_steps : int;
  end_cycles : float;
}

let finish t (st : Machine.state) =
  let r = t.r in
  {
    program_has_checks = t.has_checks;
    injected_at = r.injected_at;
    injected_cycles = r.injected_cycles;
    first_divergence = r.first_divergence;
    control_diverged_at = r.control_diverged_at;
    peak_taint = r.peak_taint;
    reg_taint_at_end = t.reg_count;
    mem_taint_at_end = t.mem_count;
    first_mem_taint_at = r.first_mem_taint_at;
    first_output_divergence_at = r.first_output_divergence_at;
    first_check_after_divergence = r.first_check_after_divergence;
    checks_after_divergence = r.checks_after_divergence;
    tainted_checks = r.tainted_checks;
    masked_at = r.masked_at;
    reactivated_at = r.reactivated_at;
    end_steps = st.Machine.steps;
    end_cycles = st.Machine.cycles.Machine.fv;
  }

let detection_latency s =
  match s.injected_at with
  | None -> None
  | Some at -> Some (s.end_steps - at, s.end_cycles -. s.injected_cycles)

(* ------------------------------------------------------------------ *)
(* Escape explanations for SDCs.                                       *)
(* ------------------------------------------------------------------ *)

type escape =
  | Unprotected_program
  | Unchecked_site
  | Masked_then_reactivated
  | Output_before_check
  | Memory_before_check
  | Check_missed_taint

let escape_name = function
  | Unprotected_program -> "unprotected-program"
  | Unchecked_site -> "unchecked-site"
  | Masked_then_reactivated -> "masked-then-reactivated"
  | Output_before_check -> "output-before-check"
  | Memory_before_check -> "memory-before-check"
  | Check_missed_taint -> "check-missed-taint"

let escape_of_name = function
  | "unprotected-program" -> Some Unprotected_program
  | "unchecked-site" -> Some Unchecked_site
  | "masked-then-reactivated" -> Some Masked_then_reactivated
  | "output-before-check" -> Some Output_before_check
  | "memory-before-check" -> Some Memory_before_check
  | "check-missed-taint" -> Some Check_missed_taint
  | _ -> None

let escape_describe = function
  | Unprotected_program ->
    "the program carries no checkers at all; every corruption that \
     reaches output escapes silently"
  | Unchecked_site ->
    "no checker executed between the corruption and program exit: the \
     faulted site is outside the protected region"
  | Masked_then_reactivated ->
    "the corrupted registers were overwritten (taint fully masked) \
     while a corrupted value survived in ECC-trusted memory, and was \
     later reloaded past the checks that had already passed"
  | Output_before_check ->
    "a corrupted value reached program output before the first checker \
     after the corruption fired"
  | Memory_before_check ->
    "the taint was stored to ECC-trusted memory before the first \
     checker after the corruption ran; later checks only saw clean \
     registers"
  | Check_missed_taint ->
    "checkers executed while the taint was live but compared locations \
     the taint had not reached"

(* Explain why an SDC escaped, from the propagation timeline.  The
   priority order matters: the more specific mechanisms first. *)
let explain_escape s =
  if not s.program_has_checks then Unprotected_program
  else if s.checks_after_divergence = 0 then Unchecked_site
  else if s.reactivated_at <> None then Masked_then_reactivated
  else
    match s.first_check_after_divergence with
    | None -> Unchecked_site
    | Some check -> (
      match s.first_output_divergence_at with
      | Some out when out <= check -> Output_before_check
      | _ -> (
        match s.first_mem_taint_at with
        | Some m when m < check -> Memory_before_check
        | _ -> Check_missed_taint))

(* ------------------------------------------------------------------ *)
(* Rendering.                                                          *)
(* ------------------------------------------------------------------ *)

let pp_step_opt ppf = function
  | None -> Fmt.string ppf "never"
  | Some s -> Fmt.pf ppf "instruction %d" s

let pp_summary ppf s =
  (match s.injected_at with
  | None -> Fmt.pf ppf "fault: never injected (site unreached)@."
  | Some at ->
    Fmt.pf ppf "injected at retired instruction %d (cycle %.0f)@." at
      s.injected_cycles);
  (match s.first_divergence with
  | None -> Fmt.pf ppf "no architectural divergence: the flip was absorbed@."
  | Some d ->
    Fmt.pf ppf "first divergence at instruction %d (static index %d): %s@."
      d.div_step d.div_static
      (match d.div_locs with
      | [] -> "control flow"
      | locs -> String.concat ", " (List.map loc_name locs)));
  (match s.control_diverged_at with
  | None -> ()
  | Some c -> Fmt.pf ppf "control flow diverged at instruction %d@." c);
  Fmt.pf ppf
    "taint: peak %d location(s); at end %d register(s)/flag(s)/lane(s), %d \
     memory byte(s)@."
    s.peak_taint s.reg_taint_at_end s.mem_taint_at_end;
  Fmt.pf ppf "taint reached memory: %a@." pp_step_opt s.first_mem_taint_at;
  Fmt.pf ppf "corrupted output: %a@." pp_step_opt
    s.first_output_divergence_at;
  (match (s.masked_at, s.reactivated_at) with
  | Some m, Some r ->
    Fmt.pf ppf
      "register taint masked at instruction %d, reactivated from memory at \
       %d@."
      m r
  | Some m, None ->
    Fmt.pf ppf "register taint fully masked at instruction %d@." m
  | None, _ -> ());
  Fmt.pf ppf
    "checkers after divergence: %d (%d with live taint), first at %a@."
    s.checks_after_divergence s.tainted_checks pp_step_opt
    s.first_check_after_divergence;
  Fmt.pf ppf "run ended after %d instructions, %.0f model cycles@."
    s.end_steps s.end_cycles
