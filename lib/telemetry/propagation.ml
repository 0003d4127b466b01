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
(* Tracer state.                                                       *)
(* ------------------------------------------------------------------ *)

type phase = Lockstep | Diverged

type t = {
  img : Machine.image;
  pre : Predecode.t; (* [img]'s decode, which steps the golden replica *)
  golden : Machine.state;
  has_checks : bool;
  reg_taint : (loc, unit) Hashtbl.t; (* GPRs, SIMD lanes, flags *)
  mem_taint : (int, unit) Hashtbl.t; (* byte addresses *)
  mutable phase : phase;
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

let create ?golden pre (img : Machine.image) =
  {
    img;
    pre;
    golden =
      (match golden with Some g -> g | None -> Machine.fresh_state img);
    has_checks =
      Array.exists
        (fun (i : Instr.ins) -> i.Instr.prov = Instr.Check)
        img.Machine.code;
    reg_taint = Hashtbl.create 16;
    mem_taint = Hashtbl.create 64;
    phase = Lockstep;
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

(* Called by the injector right after it flips the bit(s), before the
   per-step observation of the same instruction. *)
let note_injection t (st : Machine.state) =
  if t.injected_at = None then begin
    t.injected_at <- Some st.Machine.steps;
    t.injected_cycles <- st.Machine.cycles.Machine.fv
  end

(* ------------------------------------------------------------------ *)
(* Write-back comparison.                                              *)
(* ------------------------------------------------------------------ *)

(* The memory regions the instruction at [idx] wrote, evaluated under
   one state's register file.  A tainted base register makes the faulted
   store land elsewhere, so callers compare the regions of *both*
   states; comparing the same byte address across the two memories is
   correct regardless of which run wrote it. *)
let write_regions (img : Machine.image) (st : Machine.state) idx =
  let region s (m : Instr.mem) =
    [ (Int64.to_int (Machine.effective_address st m), Reg.size_bytes s) ]
  in
  let stack_slot () =
    (* push/call already decremented RSP: the slot is at the new top *)
    [ (Int64.to_int st.Machine.gpr.{Reg.gpr_index Reg.RSP}, 8) ]
  in
  match img.Machine.code.(idx).Instr.op with
  | Instr.Mov (s, _, Instr.Mem m)
  | Instr.Alu (_, s, _, Instr.Mem m)
  | Instr.Shift (_, s, _, Instr.Mem m)
  | Instr.Neg (s, Instr.Mem m)
  | Instr.Not (s, Instr.Mem m) ->
    region s m
  | Instr.Set (_, Instr.Mem m) -> region Reg.B m
  | Instr.Push _ -> stack_slot ()
  | Instr.Call _ -> (
    match img.Machine.links.(idx) with
    | Machine.L_call _ -> stack_slot ()
    | _ -> [])
  | _ -> []

let flag_value (st : Machine.state) = function
  | Cond.ZF -> st.Machine.zf
  | Cond.SF -> st.Machine.sf
  | Cond.CF -> st.Machine.cf
  | Cond.OF -> st.Machine.off

(* Compare every location the instruction wrote; update the taint sets
   and return the newly tainted locations in write order. *)
let compare_writes t (st : Machine.state) idx =
  let g = t.golden in
  let newly = ref [] in
  let set_reg loc equal =
    if equal then Hashtbl.remove t.reg_taint loc
    else if not (Hashtbl.mem t.reg_taint loc) then begin
      Hashtbl.replace t.reg_taint loc ();
      newly := loc :: !newly
    end
  in
  List.iter
    (function
      | Instr.Dgpr (r, _) ->
        let i = Reg.gpr_index r in
        set_reg (Lgpr r) (Int64.equal st.Machine.gpr.{i} g.Machine.gpr.{i})
      | Instr.Dsimd (x, lanes) ->
        List.iter
          (fun lane ->
            let i = (x * 8) + lane in
            set_reg (Lsimd (x, lane))
              (Int64.equal st.Machine.simd.{i} g.Machine.simd.{i}))
          lanes
      | Instr.Dflags flags ->
        List.iter
          (fun f -> set_reg (Lflag f) (flag_value st f = flag_value g f))
          flags)
    t.img.Machine.dests.(idx);
  let bytes = Bytes.length st.Machine.mem in
  let compare_region (a0, n) =
    for a = max 0 a0 to min (bytes - 1) (a0 + n - 1) do
      if Bytes.get st.Machine.mem a = Bytes.get g.Machine.mem a then
        Hashtbl.remove t.mem_taint a
      else if not (Hashtbl.mem t.mem_taint a) then begin
        Hashtbl.replace t.mem_taint a ();
        newly := Lmem a :: !newly
      end
    done
  in
  List.iter compare_region (write_regions t.img st idx);
  List.iter compare_region (write_regions t.img g idx);
  List.rev !newly

(* ------------------------------------------------------------------ *)
(* Per-step bookkeeping.                                               *)
(* ------------------------------------------------------------------ *)

let mark_control_divergence t (st : Machine.state) idx =
  if t.phase = Lockstep then begin
    t.phase <- Diverged;
    t.control_diverged_at <- Some st.Machine.steps;
    if t.first_divergence = None then
      t.first_divergence <-
        Some
          { div_step = st.Machine.steps; div_static = idx; div_locs = [] }
  end

let taint_bookkeeping t (st : Machine.state) idx newly =
  let rt = Hashtbl.length t.reg_taint and mt = Hashtbl.length t.mem_taint in
  if newly <> [] && t.first_divergence = None then
    t.first_divergence <-
      Some { div_step = st.Machine.steps; div_static = idx; div_locs = newly };
  if mt > 0 && t.first_mem_taint_at = None then
    t.first_mem_taint_at <- Some st.Machine.steps;
  if rt + mt > t.peak_taint then t.peak_taint <- rt + mt;
  match t.first_divergence with
  | None -> ()
  | Some _ ->
    if rt = 0 && mt > 0 && t.masked_at = None then
      t.masked_at <- Some st.Machine.steps
    else if rt > 0 && t.masked_at <> None && t.reactivated_at = None then
      t.reactivated_at <- Some st.Machine.steps

(* Checker and output events; valid in both phases.  After a control
   divergence the comparison against the golden output is no longer
   available, so any print on the separated path counts as a corrupted
   output event (it is wrong-path, or at best unverifiable). *)
let note_instruction t (st : Machine.state) idx =
  let ins = t.img.Machine.code.(idx) in
  if ins.Instr.prov = Instr.Check && t.first_divergence <> None then begin
    t.checks_after_divergence <- t.checks_after_divergence + 1;
    if t.first_check_after_divergence = None then
      t.first_check_after_divergence <- Some st.Machine.steps;
    if Hashtbl.length t.reg_taint > 0 || Hashtbl.length t.mem_taint > 0 then
      t.tainted_checks <- t.tainted_checks + 1
  end;
  match t.img.Machine.links.(idx) with
  | Machine.L_print
    when t.first_output_divergence_at = None && t.first_divergence <> None ->
    let differs =
      match t.phase with
      | Diverged -> true
      | Lockstep -> (
        match (st.Machine.out_rev, t.golden.Machine.out_rev) with
        | a :: _, b :: _ -> not (Int64.equal a b)
        | _ -> true)
    in
    if differs then t.first_output_divergence_at <- Some st.Machine.steps
  | _ -> ()

(* The observer to pass to the injector (it sees post-flip state). *)
let observe t (st : Machine.state) idx =
  match t.phase with
  | Diverged -> note_instruction t st idx
  | Lockstep ->
    if t.golden_exited || t.golden.Machine.ip <> idx then
      (* the faulted run retired an instruction the golden run did not *)
      mark_control_divergence t st idx
    else begin
      (match Predecode.step1 t.pre t.golden with
      | (_ : int) -> ()
      | exception Machine.Halt _ -> t.golden_exited <- true
      | exception Machine.Trap _ ->
        (* unreachable on the fault-free path; treat as an exit *)
        t.golden_exited <- true);
      let newly = compare_writes t st idx in
      taint_bookkeeping t st idx newly;
      note_instruction t st idx;
      (* If both runs halt on this very instruction no further observe
         arrives and lockstep simply ends; only an IP mismatch while
         both are alive is a control divergence. *)
      if (not t.golden_exited) && st.Machine.ip <> t.golden.Machine.ip then
        mark_control_divergence t st idx
    end

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
  {
    program_has_checks = t.has_checks;
    injected_at = t.injected_at;
    injected_cycles = t.injected_cycles;
    first_divergence = t.first_divergence;
    control_diverged_at = t.control_diverged_at;
    peak_taint = t.peak_taint;
    reg_taint_at_end = Hashtbl.length t.reg_taint;
    mem_taint_at_end = Hashtbl.length t.mem_taint;
    first_mem_taint_at = t.first_mem_taint_at;
    first_output_divergence_at = t.first_output_divergence_at;
    first_check_after_divergence = t.first_check_after_divergence;
    checks_after_divergence = t.checks_after_divergence;
    tainted_checks = t.tainted_checks;
    masked_at = t.masked_at;
    reactivated_at = t.reactivated_at;
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
