(* FERRUM (paper §III): assembly-level EDDI boosted with SIMD and
   compiler-level transformations.

   Per function:
   1. spare-register discovery (Spare) classifies GPRs/SIMD registers;
   2. instruction annotation: 64-bit moves whose destination differs
      from the source register are SIMD-ENABLED-INSTRUCTIONS — their
      duplicate is re-executed straight into a spare XMM lane and their
      original result is copied into a partner lane, four results per
      XMM pair, checked at once through YMM (paper Fig. 6).  Everything
      else with a GPR destination is a GENERAL-INSTRUCTION (Fig. 4);
   3. comparison instructions get deferred detection: a set<cc> pair
      captures the branch's condition from the original and from a
      re-executed compare, and both the fall-through path and the jump
      target re-verify the pair (paper Fig. 5);
   4. when spare registers run out, registers unused within a basic
      block are requisitioned by push/pop (paper Fig. 7).

   Batched SIMD checks are flushed at the points where a divergence
   could influence control flow or escape the function: before any
   compare (whose consumer branches), unconditional jumps, calls and
   returns, and whenever the four slots fill up. *)

open Ferrum_asm
module Liveness = Ferrum_analysis.Liveness

type config = {
  use_simd : bool; (* E6 ablation: disable the SIMD path entirely *)
  use_zmm : bool; (* E10: batch eight results through ZMM (paper
                     §III-B5 names AVX-512 as the natural extension) *)
  use_liveness : bool; (* under register pressure, clobber provably-dead
                          registers instead of push/pop requisition
                          (the paper's §III-B2 liveness argument) *)
  select : (string -> int -> bool) option;
    (* selective protection (E12, SDCTune-style): protect only the
       original instruction at (block label, index) when the predicate
       holds; [None] protects everything *)
  max_spare_gprs : int option; (* E7 ablation: simulate register pressure *)
  max_spare_simd : int option;
}

let default_config =
  { use_simd = true; use_zmm = false; use_liveness = false; select = None;
    max_spare_gprs = None; max_spare_simd = None }

let zmm_config = { default_config with use_zmm = true }

type stats = {
  mutable simd_batched : int; (* SIMD-ENABLED instructions protected *)
  mutable flushes : int;
  mutable general_protected : int;
  mutable comparisons_protected : int;
  mutable requisitioned_blocks : int; (* requisition events *)
  mutable unprotected : int; (* instructions left without duplication *)
}

let fresh_stats () =
  {
    simd_batched = 0;
    flushes = 0;
    general_protected = 0;
    comparisons_protected = 0;
    requisitioned_blocks = 0;
    unprotected = 0;
  }

let pp_stats ppf s =
  Fmt.pf ppf
    "simd=%d flushes=%d general=%d comparisons=%d requisitions=%d unprotected=%d"
    s.simd_batched s.flushes s.general_protected s.comparisons_protected
    s.requisitioned_blocks s.unprotected

let cap limit l =
  match limit with
  | None -> l
  | Some n -> List.filteri (fun i _ -> i < n) l

let exit_l = Prog.exit_function_label

(* ------------------------------------------------------------------ *)
(* Per-function protection context.                                    *)
(* ------------------------------------------------------------------ *)

(* Collector registers for batched checking: [xa] receives duplicates,
   [xb] originals, two 64-bit slots per XMM.  [capacity] is 4 (YMM,
   paper Fig. 6) or 8 (ZMM extension). *)
type batch = { xa : int array; xb : int array; capacity : int }

type ctx = {
  cfg : config;
  stats : stats;
  pair : (Reg.gpr * Reg.gpr) option; (* reserved flag-capture pair *)
  general_pool : Reg.gpr list; (* function-wide spares for duplication *)
  simd : batch option;
  liveness : Liveness.t option; (* of the raw function, when enabled *)
  mutable cur_label : string; (* block being walked *)
  mutable cur_index : int; (* original instruction index within it *)
  mutable batch_count : int; (* filled 64-bit slots *)
  mutable out : Instr.ins list; (* emitted code, reversed *)
  mutable entry_checks : (string, unit) Hashtbl.t;
    (* jcc targets that must verify the set<cc> pair on entry *)
}

let emit ctx i = ctx.out <- i :: ctx.out

let emit_all ctx is = List.iter (emit ctx) is

(* The YMM- (or ZMM-) wide comparison of collected duplicates against
   originals.  Unfilled slots hold stale-but-equal pairs from earlier
   batches (or the all-zero initial state), so a partial flush compares
   equal lanes and never false-fires. *)
let flush_batch ctx =
  match ctx.simd with
  | Some b when ctx.batch_count > 0 ->
    ctx.stats.flushes <- ctx.stats.flushes + 1;
    ctx.batch_count <- 0;
    let gather side =
      Instr.instrumentation (Instr.Vinserti128 (1, side.(1), side.(0), side.(0)))
      ::
      (if b.capacity = 8 then
         [ Instr.instrumentation
             (Instr.Vinserti128 (1, side.(3), side.(2), side.(2)));
           Instr.instrumentation
             (Instr.Vinserti64x4 (1, side.(2), side.(0), side.(0))) ]
       else [])
    in
    emit_all ctx (gather b.xa);
    emit_all ctx (gather b.xb);
    if b.capacity = 8 then
      emit_all ctx
        [ Instr.check (Instr.Vpxorq512 (b.xb.(0), b.xa.(0), b.xa.(0)));
          Instr.check (Instr.Vptestmq512 (b.xa.(0), b.xa.(0)));
          Instr.check (Instr.Jcc (Cond.NE, exit_l)) ]
    else
      emit_all ctx
        [ Instr.check (Instr.Vpxor (b.xb.(0), b.xa.(0), b.xa.(0)));
          Instr.check (Instr.Vptest (b.xa.(0), b.xa.(0)));
          Instr.check (Instr.Jcc (Cond.NE, exit_l)) ]
  | _ -> ()

(* SIMD-ENABLED (paper §III-B1): a 64-bit move with a register
   destination whose source is not the destination itself, excluding
   the stack registers (whose corruption must be caught before any
   further stack traffic, hence immediate GENERAL protection). *)
let simd_enabled ctx (i : Instr.t) =
  match (ctx.simd, i) with
  | Some _, Instr.Mov (Reg.Q, src, Instr.Reg d) -> (
    (not (Reg.equal_gpr d Reg.RSP))
    && (not (Reg.equal_gpr d Reg.RBP))
    &&
    match src with
    | Instr.Reg s -> not (Reg.equal_gpr s d)
    | Instr.Mem _ -> true
    | Instr.Imm _ -> false)
  | _ -> false

let psrc_of_operand = function
  | Instr.Reg r -> Instr.Psrc_reg r
  | Instr.Mem m -> Instr.Psrc_mem m
  | Instr.Imm _ -> assert false

(* Deposit one 64-bit value into the next free lane of the duplicate
   (dup = true) or original collection registers. *)
let deposit ctx ~prov ~dup (src : Instr.operand) =
  let b = match ctx.simd with Some b -> b | None -> assert false in
  let k = ctx.batch_count in
  let x = (if dup then b.xa else b.xb).(k / 2) in
  let op =
    if k mod 2 = 0 then Instr.MovQ_to_xmm (src, x)
    else Instr.Pinsrq (1, psrc_of_operand src, x)
  in
  emit ctx Instr.{ op; prov }

let advance_batch ctx =
  ctx.batch_count <- ctx.batch_count + 1;
  match ctx.simd with
  | Some b when ctx.batch_count = b.capacity -> flush_batch ctx
  | _ -> ()

(* Duplicate a SIMD-ENABLED move into the current batch slot: the
   duplicate re-executes straight into a lane, the original's result is
   copied into the partner lane (paper Fig. 6). *)
let batch_simd ctx (ins : Instr.ins) =
  let src, d =
    match ins.op with
    | Instr.Mov (Reg.Q, src, Instr.Reg d) -> (src, d)
    | _ -> assert false
  in
  deposit ctx ~prov:Instr.Dup ~dup:true src;
  emit ctx ins;
  deposit ctx ~prov:Instr.Instrumentation ~dup:false (Instr.Reg d);
  ctx.stats.simd_batched <- ctx.stats.simd_batched + 1;
  advance_batch ctx

(* Batch an owed (original, duplicate) register comparison: both results
   are shifted into partner lanes and checked at the next flush.  Only
   sound at 32/64-bit widths (zero-extended writes make the full 64-bit
   lanes comparable); byte-wide results are checked immediately. *)
let batch_owed_check ctx (c : Asm_protect.owed_check) =
  deposit ctx ~prov:Instr.Instrumentation ~dup:true c.dup;
  deposit ctx ~prov:Instr.Instrumentation ~dup:false (Instr.Reg c.orig);
  advance_batch ctx

let owed_check_batchable ctx (c : Asm_protect.owed_check) =
  ctx.simd <> None
  && (match c.width with Reg.D | Reg.Q -> true | Reg.B | Reg.W -> false)
  && (match c.dup with Instr.Imm _ -> false | _ -> true)
  && (not (Reg.equal_gpr c.orig Reg.RSP))
  && not (Reg.equal_gpr c.orig Reg.RBP)

(* ------------------------------------------------------------------ *)
(* GENERAL-INSTRUCTIONS, with requisition fallback (paper Fig. 7).     *)
(* ------------------------------------------------------------------ *)

(* Registers safe to requisition around one instruction: not mentioned
   by it, not the reserved pair, not RSP/RBP. *)
let requisition_candidates ctx (i : Instr.t) =
  let mentioned = Instr.gprs_mentioned i in
  let blocked =
    (match ctx.pair with Some (a, b) -> [ a; b ] | None -> [])
    @ Reg.[ RSP; RBP ]
    @ mentioned
  in
  List.filter (fun r -> not (List.mem r blocked)) Spare.preference

(* Emit Fig. 4 duplication; comparisons go through the SIMD batch when
   sound, and fall back to an immediate cmp+jne otherwise. *)
let emit_protected ctx ~spares ins =
  let seq, owed = Asm_protect.protect_parts ~spares ins in
  emit_all ctx seq;
  List.iter
    (fun (c : Asm_protect.owed_check) ->
      if owed_check_batchable ctx c then batch_owed_check ctx c
      else
        emit_all ctx (Asm_protect.checker c.width ~orig:c.orig ~dup:c.dup))
    owed

let protect_general ctx ?(pool = ctx.general_pool) (ins : Instr.ins) =
  let needed = Asm_protect.spares_needed ins.op in
  let usable =
    List.filter
      (fun s -> not (List.mem s (Instr.gprs_mentioned ins.op)))
      pool
  in
  if List.length usable >= needed then begin
    emit_protected ctx ~spares:usable ins;
    ctx.stats.general_protected <- ctx.stats.general_protected + 1
  end
  else begin
    (* Liveness-directed reuse (paper §III-B2): registers provably dead
       at this point can be clobbered outright, no push/pop needed. *)
    let dead_pool =
      match ctx.liveness with
      | Some lv when ctx.cfg.use_liveness ->
        List.filter
          (fun r ->
            Liveness.dead_at lv ~label:ctx.cur_label ~k:ctx.cur_index r
            && (not (List.mem r (Instr.gprs_mentioned ins.op)))
            && (match ctx.pair with
               | Some (a, b) -> not (Reg.equal_gpr r a || Reg.equal_gpr r b)
               | None -> true))
          Spare.preference
      | _ -> []
    in
    if List.length dead_pool >= needed then begin
      emit_protected ctx ~spares:dead_pool ins;
      ctx.stats.general_protected <- ctx.stats.general_protected + 1
    end
    else
    (* Requisition registers for just this instruction.  Anything that
       reads or moves RSP is exempt: the wrapping push/pop displaces the
       stack pointer (a pop's peek would read the saved register, and a
       [subq $N, %rsp] would strand the requisition slot below the new
       top, so the closing pop would reload garbage). *)
    match ins.op with
    | op when List.mem Reg.RSP (Instr.gprs_mentioned op) ->
      ctx.stats.unprotected <- ctx.stats.unprotected + 1;
      emit ctx ins
    | _ -> (
      let cands = requisition_candidates ctx ins.op in
      if List.length cands < needed then begin
        ctx.stats.unprotected <- ctx.stats.unprotected + 1;
        emit ctx ins
      end
      else
        let taken = List.filteri (fun i _ -> i < needed) cands in
        List.iter
          (fun r -> emit ctx (Instr.instrumentation (Instr.Push (Instr.Reg r))))
          taken;
        (* requisitioned spares must be restored before the next flush
           could fire, so their comparisons are always immediate *)
        let seq, owed = Asm_protect.protect_parts ~spares:taken ins in
        emit_all ctx seq;
        List.iter
          (fun (c : Asm_protect.owed_check) ->
            emit_all ctx (Asm_protect.checker c.width ~orig:c.orig ~dup:c.dup))
          owed;
        List.iter
          (fun r -> emit ctx (Instr.instrumentation (Instr.Pop r)))
          (List.rev taken);
        ctx.stats.general_protected <- ctx.stats.general_protected + 1;
        ctx.stats.requisitioned_blocks <- ctx.stats.requisitioned_blocks + 1)
  end

(* ------------------------------------------------------------------ *)
(* Comparison protection (paper §III-B2, Fig. 5).                      *)
(* ------------------------------------------------------------------ *)

let pair_check ctx =
  match ctx.pair with
  | Some (pa, pb) ->
    [ Instr.check (Instr.Cmp (Reg.B, Instr.Reg pb, Instr.Reg pa));
      Instr.check (Instr.Jcc (Cond.NE, exit_l)) ]
  | None -> []

(* cmp/test followed by jcc: capture the branch's condition from both
   the original and a re-executed compare into the reserved pair, then
   verify the pair on the fall-through path and at the jump target
   (deferred detection). *)
let protect_cmp_jcc ctx (cmp_ins : Instr.ins) cc target (jcc_ins : Instr.ins) =
  ctx.stats.comparisons_protected <- ctx.stats.comparisons_protected + 1;
  match ctx.pair with
  | Some (pa, pb) ->
    emit ctx cmp_ins;
    emit ctx (Instr.instrumentation (Instr.Set (cc, Instr.Reg pa)));
    emit ctx (Instr.dup cmp_ins.op);
    emit ctx (Instr.dup (Instr.Set (cc, Instr.Reg pb)));
    emit ctx jcc_ins;
    (* fall-through verification *)
    emit_all ctx (pair_check ctx);
    (* jump-target verification, inserted after the walk *)
    Hashtbl.replace ctx.entry_checks target ()
  | None ->
    (* No function-wide pair: immediate detection with requisitioned
       registers, re-materialising the flags for the branch. *)
    let cands = requisition_candidates ctx cmp_ins.op in
    (match cands with
    | sa :: sb :: _ ->
      emit ctx cmp_ins;
      emit ctx (Instr.instrumentation (Instr.Push (Instr.Reg sa)));
      emit ctx (Instr.instrumentation (Instr.Push (Instr.Reg sb)));
      emit ctx (Instr.instrumentation (Instr.Set (cc, Instr.Reg sa)));
      emit ctx (Instr.dup cmp_ins.op);
      emit ctx (Instr.dup (Instr.Set (cc, Instr.Reg sb)));
      emit ctx (Instr.check (Instr.Cmp (Reg.B, Instr.Reg sb, Instr.Reg sa)));
      emit ctx (Instr.check (Instr.Jcc (Cond.NE, exit_l)));
      emit ctx (Instr.instrumentation (Instr.Pop sb));
      emit ctx (Instr.instrumentation (Instr.Pop sa));
      emit ctx (Instr.instrumentation cmp_ins.op);
      emit ctx jcc_ins
    | _ ->
      ctx.stats.unprotected <- ctx.stats.unprotected + 1;
      emit ctx cmp_ins;
      emit ctx jcc_ins)

(* cmp followed by set<cc>: verify the flags by re-executing the compare
   and the setcc destination against the captured condition. *)
let protect_cmp_set ctx (cmp_ins : Instr.ins) cc dst (set_ins : Instr.ins) =
  ctx.stats.comparisons_protected <- ctx.stats.comparisons_protected + 1;
  (* the duplicate compare must run before the original set<cc>: the
     setcc destination (e.g. %al) is typically an operand of the compare
     and would corrupt the re-execution *)
  let with_pair pa pb restore =
    emit ctx cmp_ins;
    emit ctx (Instr.instrumentation (Instr.Set (cc, Instr.Reg pa)));
    emit ctx (Instr.dup cmp_ins.op);
    emit ctx (Instr.dup (Instr.Set (cc, Instr.Reg pb)));
    emit ctx set_ins;
    emit ctx (Instr.check (Instr.Cmp (Reg.B, Instr.Reg pb, Instr.Reg pa)));
    emit ctx (Instr.check (Instr.Jcc (Cond.NE, exit_l)));
    (match dst with
    | Instr.Reg d ->
      emit ctx (Instr.check (Instr.Cmp (Reg.B, Instr.Reg pa, Instr.Reg d)));
      emit ctx (Instr.check (Instr.Jcc (Cond.NE, exit_l)))
    | _ -> ());
    restore ()
  in
  match ctx.pair with
  | Some (pa, pb) -> with_pair pa pb (fun () -> ())
  | None -> (
    let cands =
      List.filter
        (fun r ->
          not
            (List.mem r
               (Instr.gprs_mentioned cmp_ins.op
               @ Instr.gprs_mentioned set_ins.op)))
        (requisition_candidates ctx cmp_ins.op)
    in
    match cands with
    | sa :: sb :: _ ->
      emit ctx (Instr.instrumentation (Instr.Push (Instr.Reg sa)));
      emit ctx (Instr.instrumentation (Instr.Push (Instr.Reg sb)));
      with_pair sa sb (fun () ->
          emit ctx (Instr.instrumentation (Instr.Pop sb));
          emit ctx (Instr.instrumentation (Instr.Pop sa)))
    | _ ->
      ctx.stats.unprotected <- ctx.stats.unprotected + 1;
      emit ctx cmp_ins;
      emit ctx set_ins)

(* ------------------------------------------------------------------ *)
(* Block walk.                                                         *)
(* ------------------------------------------------------------------ *)

let is_cmp_like = function Instr.Cmp _ | Instr.Test _ -> true | _ -> false

let walk_block ctx (b : Prog.block) =
  ctx.out <- [];
  ctx.batch_count <- 0;
  ctx.cur_label <- b.label;
  let selected i =
    match ctx.cfg.select with None -> true | Some f -> f b.label i
  in
  let body = Array.of_list b.insns in
  let n = Array.length body in
  let rec go i =
    ctx.cur_index <- i;
    if i >= n then ()
    else
      let ins = body.(i) in
      match ins.op with
      | op when is_cmp_like op && i + 1 < n && not (selected i) ->
        (* deselected compare: leave it and its consumer alone *)
        flush_batch ctx;
        emit ctx ins;
        (match body.(i + 1).op with
        | Instr.Jcc _ | Instr.Set _ ->
          emit ctx body.(i + 1);
          go (i + 2)
        | _ -> go (i + 1))
      | op when is_cmp_like op && i + 1 < n -> (
        flush_batch ctx;
        match body.(i + 1).op with
        | Instr.Jcc (cc, target) when not (String.equal target exit_l) ->
          protect_cmp_jcc ctx ins cc target body.(i + 1);
          go (i + 2)
        | Instr.Set (cc, dst) ->
          protect_cmp_set ctx ins cc dst body.(i + 1);
          go (i + 2)
        | _ ->
          (* flags unread before redefinition: faults are benign *)
          emit ctx ins;
          go (i + 1))
      | op when is_cmp_like op ->
        flush_batch ctx;
        emit ctx ins;
        go (i + 1)
      | Instr.Jmp _ | Instr.Ret ->
        flush_batch ctx;
        emit ctx ins;
        go (i + 1)
      | Instr.Call _ ->
        flush_batch ctx;
        emit ctx ins;
        (* the callee's own protection dirties the set<cc> pair of this
           function; restore the equal-unless-faulty invariant *)
        (match ctx.pair with
        | Some (pa, pb) ->
          emit ctx
            (Instr.instrumentation (Instr.Mov (Reg.B, Instr.Reg pa, Instr.Reg pb)))
        | None -> ());
        go (i + 1)
      | Instr.Jcc _ ->
        (* a jcc not consumed by the cmp lookahead: its compare was not
           recognised; keep it unprotected but flush first *)
        flush_batch ctx;
        ctx.stats.unprotected <- ctx.stats.unprotected + 1;
        emit ctx ins;
        go (i + 1)
      | op when (simd_enabled ctx op || Asm_protect.protectable op)
                && not (selected i) ->
        emit ctx ins;
        go (i + 1)
      | op when simd_enabled ctx op ->
        batch_simd ctx ins;
        go (i + 1)
      | op when Asm_protect.protectable op ->
        protect_general ctx ins;
        go (i + 1)
      | _ ->
        (* stores, pushes: no injectable destination *)
        emit ctx ins;
        go (i + 1)
  in
  go 0;
  flush_batch ctx;
  Prog.block b.label (List.rev ctx.out)

(* ------------------------------------------------------------------ *)
(* Function / program entry points.                                    *)
(* ------------------------------------------------------------------ *)

let protect_func cfg stats (f : Prog.func) : Prog.func =
  let sp = Spare.analyze_func f in
  let spare_gprs = cap cfg.max_spare_gprs sp.Spare.spare_gprs in
  let spare_simd = cap cfg.max_spare_simd sp.Spare.spare_simd in
  let pair, general_pool =
    match spare_gprs with
    | a :: b :: rest -> (Some (a, b), rest)
    | rest -> (None, rest)
  in
  let simd =
    if not cfg.use_simd then None
    else
      let want = if cfg.use_zmm then 8 else 4 in
      if List.length spare_simd >= want then begin
        let regs = Array.of_list (cap (Some want) spare_simd) in
        let half = want / 2 in
        Some
          {
            xa = Array.init half (fun i -> regs.(i));
            xb = Array.init half (fun i -> regs.(half + i));
            capacity = want;
          }
      end
      else if List.length spare_simd >= 4 then begin
        let regs = Array.of_list (cap (Some 4) spare_simd) in
        Some
          { xa = [| regs.(0); regs.(1) |]; xb = [| regs.(2); regs.(3) |];
            capacity = 4 }
      end
      else None
  in
  let liveness =
    if cfg.use_liveness then Some (Liveness.analyze f) else None
  in
  let ctx =
    {
      cfg;
      stats;
      pair;
      general_pool;
      simd;
      liveness;
      cur_label = "";
      cur_index = 0;
      batch_count = 0;
      out = [];
      entry_checks = Hashtbl.create 16;
    }
  in
  let blocks = List.map (walk_block ctx) f.blocks in
  (* insert deferred pair verification at every protected jcc target *)
  let blocks =
    List.map
      (fun (b : Prog.block) ->
        if Hashtbl.mem ctx.entry_checks b.label then
          Prog.block b.label (pair_check ctx @ b.insns)
        else b)
      blocks
  in
  (* the post-call pair re-equalisation only matters when some block
     verifies the pair on entry; drop it otherwise (e.g. fully
     deselected functions) *)
  let blocks =
    if Hashtbl.length ctx.entry_checks > 0 then blocks
    else
      let is_equalise (i : Instr.ins) =
        match (ctx.pair, i.prov, i.op) with
        | Some (pa, pb), Instr.Instrumentation,
          Instr.Mov (Reg.B, Instr.Reg a, Instr.Reg b) ->
          Reg.equal_gpr a pa && Reg.equal_gpr b pb
        | _ -> false
      in
      List.map
        (fun (b : Prog.block) ->
          Prog.block b.label (List.filter (fun i -> not (is_equalise i)) b.insns))
        blocks
  in
  Prog.func f.fname blocks

(* Apply FERRUM to a whole program, returning the protected program and
   transform statistics. *)
let protect ?(config = default_config) (p : Prog.t) : Prog.t * stats =
  let stats = fresh_stats () in
  let p' = Prog.map_funcs (protect_func config stats) p in
  Prog.validate p';
  (p', stats)
