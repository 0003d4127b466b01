(* The simulator's instruction semantics: a decode-time closure compiler
   and the loops that run it.

   This module is the one definition of what each instruction does.  It
   lowers an {!Machine.image} once into a flat array of resolved-operand
   closures — one thunk per static index, each doing the step preamble
   ([retire]: cycles, steps, [ip]) followed by a body specialized at
   decode time ([fast_thunk] for hot shapes, the composed [mk_body]
   otherwise) — and drives them from three loops:

   - {!exec}: the unobserved fast path (golden walks, checkpoint suffix
     replays, untraced campaign samples).  No observer branch, no
     operand matching, and the hottest static pairs run as fused
     superinstructions.
   - {!exec_observed}: the observed path.  The observer sees every
     retired instruction, including the halting one, and its mutations
     are visible to the next step — the golden profile and its
     checkpoint capture, per-step fault injection, flight recorder and
     propagation lockstep all see the exact retirement stream, so
     fusion is bypassed here.
   - {!step1}: a single pre-decoded step, for loops that need to stop at
     exact step or site boundaries (prefix replays to the injection
     site).

   {!run}, {!run_fresh} and {!golden} decode an image and run it once.
   A caller that runs the same image repeatedly decodes it once itself
   and keeps the result: a prepared injection target owns its decode
   ([Faultsim.prepare]).

   Each rule the specialized thunks share is written once, as a
   [let[@inline]] helper below: the step preamble ([retire]), the
   effective address ([ea]), the end-of-memory guard before an
   unchecked access ([guard]), the 64-bit ADD, SUB and logic flag rules
   ([flags_add], [flags_sub], [flags_logic]) and the 8-bit SUB rule
   ([flags_sub8]) with its byte operands ([source8], [dest8]), the
   256-bit [vptest] reduction ([vptest256]), the n-lane xor and test of
   the 512-bit arms ([xor_lanes], [test_lanes]), the stack push and pop
   ([push64], [pop64]), a conditional branch to a target or to the
   detector ([jcc]) and the fused-pair fuel check and epilogue
   ([check_fuel], [chain]).  They live in this file,
   not in {!Machine}, because the dev profile compiles with [-opaque]:
   a call into another module is never inlined, and a helper that is
   not inlined receives its int64 arguments boxed.  Inlined, each one
   expands inside the closure that calls it, which keeps one closure
   per specialized shape (a branch on the operation inside a shared
   closure would box).  The interface exports none of them, nor the
   thunk constructors ([fast_thunk], [mk_body], [fuse_pair]).

   Two representation choices make the specialized thunks allocation-free:

   - Register files are int64 bigarrays ({!Machine.regfile}), so register
     reads and writes compile to unboxed loads/stores with no GC write
     barrier.  Inside a single thunk body the whole dataflow — operand
     loads, ALU, flag predicates, the store — stays in machine registers;
     int64 comparisons ([=], [<], [Int64.equal], [Int64.compare]) are
     specialized by the compiler and never box.
   - Cycles accumulate into the state's unboxed float cell
     ({!Machine.fcell}), updated in place by every retirement, so no loop
     boxes a float and a decode holds no per-run state besides its fuel
     bound and its count of fused steps, which only ever grows: any
     number of states (an injected run and its lockstep golden replica)
     can step through one decode, and a caller reads the steps one run
     fused as the count's delta over it.

   Superinstruction fusion is a pure dispatch optimization: a fused thunk
   at index [i] executes instructions [i] and [i+1] with per-instruction
   accounting and a fuel check between the two, so steps, cycles, traps
   and timeouts land bit-identically to single-step execution.  Because
   dispatch stays per-index, control entering the middle of a pair (a
   corrupted return, a jump) simply runs the standalone thunk at [i+1].
   A decode-time pattern table picks the pairs; fusion is bypassed when
   the second element is a join point (jump target, callee entry, the
   instruction after a call, the program entry) or a caller-supplied
   [avoid] site (the injector passes its eligible-site mask so a prefix
   stop never lands mid-pair).

   The test suites check every loop against an independent reference
   interpreter ([test/oracle]): random straight-line programs with and
   without a mid-run bit flip, the catalogue, and each injection
   engine's campaign records replayed on the oracle. *)

open Ferrum_asm

(* Unchecked register-file and byte access ({!Prims}).  Register
   indices are decode-time constants in [0, 15] (GPR) or [0, 127] (SIMD
   lanes); byte offsets pass [guard] first.  The 4- and 8-byte
   loads/stores are native-endian: their specialized arms are built
   only on little-endian hosts (x86 order); big-endian hosts fall back
   to the generic bodies, which go through
   [Machine.read_mem]/[write_mem].  Single-byte arms have no byte
   order and are built everywhere. *)
open Prims

let little_endian = not Sys.big_endian

type t = {
  thunks : (Machine.state -> unit) array; (* standalone, one per index *)
  specialized : bool array; (* thunk built by [fast_thunk], per index *)
  fused : (Machine.state -> unit) array; (* pair thunk at fused starts *)
  fused_name : string array; (* pattern name at fused starts, else "" *)
  n_fused : int; (* number of fused pair starts *)
  pattern_counts : (string * int) list; (* per-pattern static pair count *)
  fuel : int ref; (* fuel bound of the current {!exec} run *)
  fused_steps : int ref; (* steps ever retired here as fused pairs *)
}

(* Raised by a fused thunk when fuel runs out between its two halves. *)
exception Fuel

(* ------------------------------------------------------------------ *)
(* Operand specialization (generic closures, for the composed bodies). *)
(* ------------------------------------------------------------------ *)

(* Effective address with base/index/disp resolved at decode time. *)
let mk_ea (m : Instr.mem) : Machine.state -> int64 =
  let disp = Int64.of_int m.Instr.disp in
  match (m.Instr.base, m.Instr.index) with
  | None, None -> fun _ -> disp
  | Some b, None ->
    let bi = Reg.gpr_index b in
    if m.Instr.disp = 0 then fun st -> bget st.Machine.gpr bi
    else fun st -> Int64.add (bget st.Machine.gpr bi) disp
  | None, Some x ->
    let xi = Reg.gpr_index x in
    let sc = Int64.of_int m.Instr.scale in
    fun st -> Int64.add (Int64.mul (bget st.Machine.gpr xi) sc) disp
  | Some b, Some x ->
    let bi = Reg.gpr_index b and xi = Reg.gpr_index x in
    let sc = Int64.of_int m.Instr.scale in
    fun st ->
      Int64.add
        (Int64.add (bget st.Machine.gpr bi)
           (Int64.mul (bget st.Machine.gpr xi) sc))
        disp

(* Decode-time encoding of an effective address as plain scalars, for
   the specialized arms: base/index register slots ([-1] = absent), the
   scale and displacement as int64.  The arms expand the sum inline
   through [ea], so the address never crosses a closure boundary
   (crossing would box it). *)
let addr_parts (m : Instr.mem) =
  ( (match m.Instr.base with Some b -> Reg.gpr_index b | None -> -1),
    (match m.Instr.index with Some x -> Reg.gpr_index x | None -> -1),
    Int64.of_int m.Instr.scale,
    Int64.of_int m.Instr.disp )

(* A register or immediate source as [(si, iv)]: [si >= 0] selects
   register [si], else the immediate [iv] (read through [source]). *)
let reg_or_imm (src : Instr.operand) =
  match src with
  | Instr.Imm i -> Some (-1, i)
  | Instr.Reg r -> Some (Reg.gpr_index r, 0L)
  | Instr.Mem _ -> None

(* A register or memory destination as [(di, addr_parts)], read
   through [dest8]: [di >= 0] selects register [di], else the memory
   operand. *)
let byte_dest (dst : Instr.operand) =
  match dst with
  | Instr.Reg r -> Some (Reg.gpr_index r, (-1, -1, 0L, 0L))
  | Instr.Mem m -> Some (-1, addr_parts m)
  | Instr.Imm _ -> None

let mk_read s (o : Instr.operand) : Machine.state -> int64 =
  match o with
  | Instr.Imm i ->
    let v = Int64.logand i (Machine.mask_of_size s) in
    fun _ -> v
  | Instr.Reg r -> (
    let i = Reg.gpr_index r in
    match s with
    | Reg.Q -> fun st -> bget st.Machine.gpr i
    | _ ->
      let m = Machine.mask_of_size s in
      fun st -> Int64.logand (bget st.Machine.gpr i) m)
  | Instr.Mem m ->
    let ea = mk_ea m in
    fun st -> Machine.read_mem st (ea st) s

let mk_write_gpr s r : Machine.state -> int64 -> unit =
  let i = Reg.gpr_index r in
  match s with
  | Reg.Q -> fun st v -> bset st.Machine.gpr i v
  | Reg.D -> fun st v -> bset st.Machine.gpr i (Int64.logand v 0xFFFFFFFFL)
  | Reg.W ->
    fun st v ->
      bset st.Machine.gpr i
        (Int64.logor
           (Int64.logand (bget st.Machine.gpr i) (Int64.lognot 0xFFFFL))
           (Int64.logand v 0xFFFFL))
  | Reg.B ->
    fun st v ->
      bset st.Machine.gpr i
        (Int64.logor
           (Int64.logand (bget st.Machine.gpr i) (Int64.lognot 0xFFL))
           (Int64.logand v 0xFFL))

let mk_write s (o : Instr.operand) : Machine.state -> int64 -> unit =
  match o with
  | Instr.Imm _ -> fun _ _ -> Machine.trap "write to immediate"
  | Instr.Reg r -> mk_write_gpr s r
  | Instr.Mem m ->
    let ea = mk_ea m in
    fun st v -> Machine.write_mem st (ea st) s v

let mk_cond (c : Cond.t) : Machine.state -> bool =
  match c with
  | Cond.E -> fun st -> st.Machine.zf
  | Cond.NE -> fun st -> not st.Machine.zf
  | Cond.L -> fun st -> st.Machine.sf <> st.Machine.off
  | Cond.LE -> fun st -> st.Machine.zf || st.Machine.sf <> st.Machine.off
  | Cond.G -> fun st -> (not st.Machine.zf) && st.Machine.sf = st.Machine.off
  | Cond.GE -> fun st -> st.Machine.sf = st.Machine.off
  | Cond.B -> fun st -> st.Machine.cf
  | Cond.BE -> fun st -> st.Machine.cf || st.Machine.zf
  | Cond.A -> fun st -> (not st.Machine.cf) && not st.Machine.zf
  | Cond.AE -> fun st -> not st.Machine.cf
  | Cond.S -> fun st -> st.Machine.sf
  | Cond.NS -> fun st -> not st.Machine.sf

(* ------------------------------------------------------------------ *)
(* Shared rules, inlined into every closure that uses them.            *)
(* ------------------------------------------------------------------ *)

(* The step preamble: charge the cycle cost, count the step, set [ip]. *)
let[@inline] retire cost (st : Machine.state) ip =
  let c = st.Machine.cycles in
  c.Machine.fv <- c.Machine.fv +. cost;
  st.Machine.steps <- st.Machine.steps + 1;
  st.Machine.ip <- ip

let[@inline] source g si iv = if si >= 0 then bget g si else iv

(* base + index*scale + disp over the scalars of [addr_parts]. *)
let[@inline] ea g bi xi sc disp =
  Int64.add
    (Int64.add
       (if bi >= 0 then bget g bi else 0L)
       (if xi >= 0 then Int64.mul (bget g xi) sc else 0L))
    disp

(* The end-of-memory guard before an unchecked access of [bytes] bytes
   at [addr]: [Machine.check_addr] with its compares specialized (the
   checked and unchecked accessors agree on every address it admits).
   Returns the byte offset; only the trap allocates. *)
let[@inline] guard (st : Machine.state) addr bytes =
  let ml = Bytes.length st.Machine.mem in
  let a = Int64.to_int addr in
  if addr < 0L || addr >= Int64.of_int ml || a + bytes > ml || a < 0 then
    Machine.trap "memory access at 0x%Lx" addr;
  a

(* Flag rules: the [Reg.Q] specializations of [Machine.set_flags_*]:
   masking with [-1L] dropped, [sign_bit] a plain sign compare, and
   [Int64.unsigned_compare a b < 0] rewritten as the sign-flipped signed
   compare [Int64.logxor a Int64.min_int < Int64.logxor b Int64.min_int]
   (the stdlib function is not specialized by the compiler; the rewrite
   is). *)
let[@inline] flags_logic (st : Machine.state) res =
  st.Machine.zf <- Int64.equal res 0L;
  st.Machine.sf <- res < 0L;
  st.Machine.cf <- false;
  st.Machine.off <- false

let[@inline] flags_add (st : Machine.state) a b res =
  st.Machine.zf <- Int64.equal res 0L;
  st.Machine.sf <- res < 0L;
  st.Machine.cf <-
    Int64.logxor res Int64.min_int < Int64.logxor a Int64.min_int
    || Int64.logxor res Int64.min_int < Int64.logxor b Int64.min_int;
  st.Machine.off <- a < 0L = (b < 0L) && res < 0L <> (a < 0L)

let[@inline] flags_sub (st : Machine.state) a b res =
  st.Machine.zf <- Int64.equal res 0L;
  st.Machine.sf <- res < 0L;
  st.Machine.cf <- Int64.logxor a Int64.min_int < Int64.logxor b Int64.min_int;
  st.Machine.off <- a < 0L <> (b < 0L) && res < 0L <> (a < 0L)

(* The [Reg.B] specialization of [Machine.set_flags_sub], over operands
   already reduced to their low byte as native ints ([low8], [load8]):
   the sign bit is bit 7 and the unsigned borrow a plain compare. *)
let[@inline] flags_sub8 (st : Machine.state) a b =
  let res = (a - b) land 0xFF in
  st.Machine.zf <- res = 0;
  st.Machine.sf <- res >= 0x80;
  st.Machine.cf <- a < b;
  st.Machine.off <- a >= 0x80 <> (b >= 0x80) && res >= 0x80 <> (a >= 0x80)

let[@inline] low8 v = Int64.to_int v land 0xFF

(* The byte at offset [a], which has passed [guard]. *)
let[@inline] load8 (st : Machine.state) a =
  Char.code (byte_get st.Machine.mem a)

(* [source]'s low byte, the immediate reduced at decode time: taking
   [low8] of [source] instead would box the register read. *)
let[@inline] source8 g si iv8 = if si >= 0 then low8 (bget g si) else iv8

(* The low byte of a register ([di >= 0]) or the byte at a memory
   operand given by [addr_parts] ([di = -1]), as [byte_dest] encodes a
   destination at decode time. *)
let[@inline] dest8 st g di bi xi sc disp =
  if di >= 0 then low8 (bget g di)
  else load8 st (guard st (ea g bi xi sc disp) 1)

(* 256-bit xor of SIMD slots [a8], [b8] into [d8]: lane-by-lane
   read-then-write in lane order (visible if [d8] aliases a source). *)
let[@inline] vpxor256 s a8 b8 d8 =
  bset s d8 (Int64.logxor (bget s a8) (bget s b8));
  bset s (d8 + 1) (Int64.logxor (bget s (a8 + 1)) (bget s (b8 + 1)));
  bset s (d8 + 2) (Int64.logxor (bget s (a8 + 2)) (bget s (b8 + 2)));
  bset s (d8 + 3) (Int64.logxor (bget s (a8 + 3)) (bget s (b8 + 3)))

(* 256-bit [vptest]: ZF when [b AND a] is zero, CF when [b AND NOT a]
   is, over the four lanes unrolled. *)
let[@inline] vptest256 (st : Machine.state) s a8 b8 =
  let a0 = bget s a8
  and a1 = bget s (a8 + 1)
  and a2 = bget s (a8 + 2)
  and a3 = bget s (a8 + 3) in
  let b0 = bget s b8
  and b1 = bget s (b8 + 1)
  and b2 = bget s (b8 + 2)
  and b3 = bget s (b8 + 3) in
  let and_acc =
    Int64.logor
      (Int64.logor (Int64.logand b0 a0) (Int64.logand b1 a1))
      (Int64.logor (Int64.logand b2 a2) (Int64.logand b3 a3))
  in
  let andn_acc =
    Int64.logor
      (Int64.logor
         (Int64.logand b0 (Int64.lognot a0))
         (Int64.logand b1 (Int64.lognot a1)))
      (Int64.logor
         (Int64.logand b2 (Int64.lognot a2))
         (Int64.logand b3 (Int64.lognot a3)))
  in
  st.Machine.zf <- Int64.equal and_acc 0L;
  st.Machine.cf <- Int64.equal andn_acc 0L;
  st.Machine.sf <- false;
  st.Machine.off <- false

(* [vpxor256] and [vptest256] over [n] lanes, as a loop: the 512-bit
   arms. *)
let[@inline] xor_lanes s n a8 b8 d8 =
  for lane = 0 to n - 1 do
    bset s (d8 + lane) (Int64.logxor (bget s (a8 + lane)) (bget s (b8 + lane)))
  done

let[@inline] test_lanes (st : Machine.state) s n a8 b8 =
  let and_acc = ref 0L and andn_acc = ref 0L in
  for lane = 0 to n - 1 do
    let va = bget s (a8 + lane) and vb = bget s (b8 + lane) in
    and_acc := Int64.logor !and_acc (Int64.logand vb va);
    andn_acc := Int64.logor !andn_acc (Int64.logand vb (Int64.lognot va))
  done;
  st.Machine.zf <- Int64.equal !and_acc 0L;
  st.Machine.cf <- Int64.equal !andn_acc 0L;
  st.Machine.sf <- false;
  st.Machine.off <- false

let rsp_i = Reg.gpr_index Reg.RSP

(* [Machine.push] and [Machine.pop] over the guarded native-endian
   accessors: RSP moves before the store's bounds check, and only after
   the load's. *)
let[@inline] push64 (st : Machine.state) v =
  let g = st.Machine.gpr in
  let sp = Int64.sub (bget g rsp_i) 8L in
  bset g rsp_i sp;
  let a = guard st sp 8 in
  Machine.mark_dirty st a 8;
  b_set64u st.Machine.mem a v

let[@inline] pop64 (st : Machine.state) =
  let g = st.Machine.gpr in
  let sp = bget g rsp_i in
  let v = b_get64u st.Machine.mem (guard st sp 8) in
  bset g rsp_i (Int64.add sp 8L);
  v

(* Between the halves of a fused pair: stop if the first used the last
   of the fuel. *)
let[@inline] check_fuel fuel (st : Machine.state) =
  if st.Machine.steps >= !fuel then raise Fuel

(* A fused jcc's condition: [ck] (from [cond_kind], decode-constant)
   reads ZF directly for E and NE and calls [ev] otherwise. *)
let cond_kind (c : Cond.t) = match c with Cond.E -> 0 | Cond.NE -> 1 | _ -> 2

let[@inline] taken ck ev (st : Machine.state) =
  if ck = 0 then st.Machine.zf else if ck = 1 then not st.Machine.zf else ev st

(* A conditional branch's resolved link: the target index, or [-1] for
   the protection's branch to the detector ([Machine.L_detect]). *)
let jcc_target (img : Machine.image) ip =
  match img.Machine.links.(ip) with
  | Machine.L_target t -> Some t
  | Machine.L_detect -> Some (-1)
  | _ -> None

(* What a taken branch to the detector raises, allocated once. *)
let detected = Machine.Halt Machine.Detected

(* A whole jcc step over a [jcc_target] link: a taken branch to the
   detector retires (falling through, like the generic body) and then
   halts the run. *)
let[@inline] jcc cost ck ev t next (st : Machine.state) =
  let tk = taken ck ev st in
  retire cost st (if tk && t >= 0 then t else next);
  if tk && t < 0 then raise detected

(* The fused-pair epilogue: count both steps in [count], then
   tail-call the thunk at the new [ip] while fuel lasts and [ip] is in
   range. *)
let[@inline] chain fuel count fused len (st : Machine.state) =
  count := !count + 2;
  let ip' = st.Machine.ip in
  if st.Machine.steps < !fuel && ip' >= 0 && ip' < len then
    (aget fused ip') st

(* ------------------------------------------------------------------ *)
(* Thunk construction.                                                 *)
(* ------------------------------------------------------------------ *)

(* Fully-specialized thunks for the catalogue's hottest shapes: 64-bit
   moves and ALU (including memory operands, with the effective address
   and the end-of-memory guard expanded inline), byte moves to and from
   memory and between registers, byte compares, the SIMD duplicate/check
   ops the protection transforms emit, resolved jumps and conditional
   branches (the branch to the detector included), [lea], [set],
   immediate shifts, calls, returns, [push], [pop], [cqto] and [idiv].
   Each arm is one closure built from the inlined rules above — the
   preamble, its operand dataflow and its flag rule — so a retired
   instruction is one closure call with no allocation.  Everything else
   goes through the generic composed body below.  [None] means "no fast
   shape". *)
let fast_thunk ~cost ~next (img : Machine.image) ip (op : Instr.t) :
    (Machine.state -> unit) option =
  match op with
  | Instr.Mov (Reg.Q, src, Instr.Reg d) -> (
    let di = Reg.gpr_index d in
    match src with
    | Instr.Imm v ->
      Some
        (fun st ->
          retire cost st next;
          bset st.Machine.gpr di v)
    | Instr.Reg r ->
      let ri = Reg.gpr_index r in
      Some
        (fun st ->
          retire cost st next;
          let g = st.Machine.gpr in
          bset g di (bget g ri))
    | Instr.Mem m ->
      if not little_endian then None
      else
        let bi, xi, sc, disp = addr_parts m in
        Some
          (fun st ->
            retire cost st next;
            let g = st.Machine.gpr in
            let a = guard st (ea g bi xi sc disp) 8 in
            bset g di (b_get64u st.Machine.mem a)))
  | Instr.Mov (Reg.Q, src, Instr.Mem m) -> (
    if not little_endian then None
    else
      let bi, xi, sc, disp = addr_parts m in
      match src with
      | Instr.Imm v ->
        Some
          (fun st ->
            retire cost st next;
            let a = guard st (ea st.Machine.gpr bi xi sc disp) 8 in
            Machine.mark_dirty st a 8;
            b_set64u st.Machine.mem a v)
      | Instr.Reg r ->
        let ri = Reg.gpr_index r in
        Some
          (fun st ->
            retire cost st next;
            let g = st.Machine.gpr in
            let a = guard st (ea g bi xi sc disp) 8 in
            Machine.mark_dirty st a 8;
            b_set64u st.Machine.mem a (bget g ri))
      | Instr.Mem _ -> None)
  | Instr.Mov (Reg.B, src, Instr.Mem m) -> (
    match reg_or_imm src with
    | None -> None
    | Some (si, iv) ->
      let iv8 = low8 iv and bi, xi, sc, disp = addr_parts m in
      Some
        (fun st ->
          retire cost st next;
          let g = st.Machine.gpr in
          let a = guard st (ea g bi xi sc disp) 1 in
          Machine.mark_dirty st a 1;
          byte_set st.Machine.mem a (Char.unsafe_chr (source8 g si iv8))))
  | Instr.Mov (Reg.B, Instr.Mem m, Instr.Reg d) ->
    let di = Reg.gpr_index d in
    let bi, xi, sc, disp = addr_parts m in
    Some
      (fun st ->
        retire cost st next;
        let g = st.Machine.gpr in
        let v = load8 st (guard st (ea g bi xi sc disp) 1) in
        bset g di
          (Int64.logor
             (Int64.logand (bget g di) (Int64.lognot 0xFFL))
             (Int64.of_int v)))
  | Instr.Mov (Reg.B, src, Instr.Reg d) -> (
    match reg_or_imm src with
    | None -> None
    | Some (si, iv) ->
      let di = Reg.gpr_index d and iv8 = low8 iv in
      Some
        (fun st ->
          retire cost st next;
          let g = st.Machine.gpr in
          bset g di
            (Int64.logor
               (Int64.logand (bget g di) (Int64.lognot 0xFFL))
               (Int64.of_int (source8 g si iv8)))))
  | Instr.Lea (m, d) ->
    let di = Reg.gpr_index d in
    let bi, xi, sc, disp = addr_parts m in
    Some
      (fun st ->
        retire cost st next;
        let g = st.Machine.gpr in
        bset g di (ea g bi xi sc disp))
  | Instr.Alu (aop, Reg.Q, src, Instr.Reg d) -> (
    let di = Reg.gpr_index d in
    (* the [si >= 0] branch of [source] is decode-constant per thunk, so
       it predicts perfectly and keeps one body per ALU op *)
    match reg_or_imm src with
    | None -> None
    | Some (si, iv) -> (
      match aop with
      | Instr.Add ->
        Some
          (fun st ->
            retire cost st next;
            let g = st.Machine.gpr in
            let a = bget g di and b = source g si iv in
            let res = Int64.add a b in
            flags_add st a b res;
            bset g di res)
      | Instr.Sub ->
        Some
          (fun st ->
            retire cost st next;
            let g = st.Machine.gpr in
            let a = bget g di and b = source g si iv in
            let res = Int64.sub a b in
            flags_sub st a b res;
            bset g di res)
      | Instr.Imul ->
        Some
          (fun st ->
            retire cost st next;
            let g = st.Machine.gpr in
            let res = Int64.mul (bget g di) (source g si iv) in
            flags_logic st res;
            bset g di res)
      | Instr.And ->
        Some
          (fun st ->
            retire cost st next;
            let g = st.Machine.gpr in
            let res = Int64.logand (bget g di) (source g si iv) in
            flags_logic st res;
            bset g di res)
      | Instr.Or ->
        Some
          (fun st ->
            retire cost st next;
            let g = st.Machine.gpr in
            let res = Int64.logor (bget g di) (source g si iv) in
            flags_logic st res;
            bset g di res)
      | Instr.Xor ->
        Some
          (fun st ->
            retire cost st next;
            let g = st.Machine.gpr in
            let res = Int64.logxor (bget g di) (source g si iv) in
            flags_logic st res;
            bset g di res)))
  | Instr.Cmp (Reg.Q, src, Instr.Reg d) -> (
    let di = Reg.gpr_index d in
    match src with
    | Instr.Imm iv ->
      Some
        (fun st ->
          retire cost st next;
          let a = bget st.Machine.gpr di in
          flags_sub st a iv (Int64.sub a iv))
    | Instr.Reg r ->
      let ri = Reg.gpr_index r in
      Some
        (fun st ->
          retire cost st next;
          let g = st.Machine.gpr in
          let a = bget g di and b = bget g ri in
          flags_sub st a b (Int64.sub a b))
    | Instr.Mem m ->
      if not little_endian then None
      else
        let bi, xi, sc, disp = addr_parts m in
        Some
          (fun st ->
            retire cost st next;
            let g = st.Machine.gpr in
            let a = bget g di in
            let b = b_get64u st.Machine.mem (guard st (ea g bi xi sc disp) 8) in
            flags_sub st a b (Int64.sub a b)))
  | Instr.Cmp (Reg.B, src, dst) -> (
    match (reg_or_imm src, byte_dest dst) with
    | Some (si, iv), Some (di, (bi, xi, sc, disp)) ->
      let iv8 = low8 iv in
      Some
        (fun st ->
          retire cost st next;
          let g = st.Machine.gpr in
          flags_sub8 st (dest8 st g di bi xi sc disp) (source8 g si iv8))
    | _ -> None)
  | Instr.Test (Reg.Q, src, Instr.Reg d) -> (
    let di = Reg.gpr_index d in
    match reg_or_imm src with
    | None -> None
    | Some (si, iv) ->
      Some
        (fun st ->
          retire cost st next;
          let g = st.Machine.gpr in
          flags_logic st (Int64.logand (bget g di) (source g si iv))))
  | Instr.Set (c, Instr.Reg d) ->
    let di = Reg.gpr_index d in
    let ev = mk_cond c in
    Some
      (fun st ->
        retire cost st next;
        let g = st.Machine.gpr in
        bset g di
          (Int64.logor
             (Int64.logand (bget g di) (Int64.lognot 0xFFL))
             (if ev st then 1L else 0L)))
  | Instr.Movslq (Instr.Reg r, d) ->
    let ri = Reg.gpr_index r and di = Reg.gpr_index d in
    Some
      (fun st ->
        retire cost st next;
        let g = st.Machine.gpr in
        bset g di
          (Int64.shift_right (Int64.shift_left (bget g ri) 32) 32))
  | Instr.Movslq (Instr.Mem m, d) ->
    if not little_endian then None
    else
      let di = Reg.gpr_index d in
      let bi, xi, sc, disp = addr_parts m in
      Some
        (fun st ->
          retire cost st next;
          let g = st.Machine.gpr in
          let a = guard st (ea g bi xi sc disp) 4 in
          bset g di (Int64.of_int32 (b_get32u st.Machine.mem a)))
  | Instr.Shift (k, Reg.Q, Instr.Amt_imm n, Instr.Reg d) -> (
    let di = Reg.gpr_index d in
    let n = n land 63 in
    match k with
    | Instr.Shl ->
      Some
        (fun st ->
          retire cost st next;
          let g = st.Machine.gpr in
          let res = Int64.shift_left (bget g di) n in
          flags_logic st res;
          bset g di res)
    | Instr.Sar ->
      Some
        (fun st ->
          retire cost st next;
          let g = st.Machine.gpr in
          let res = Int64.shift_right (bget g di) n in
          flags_logic st res;
          bset g di res)
    | Instr.Shr ->
      Some
        (fun st ->
          retire cost st next;
          let g = st.Machine.gpr in
          let res = Int64.shift_right_logical (bget g di) n in
          flags_logic st res;
          bset g di res))
  | Instr.Jmp _ -> (
    match img.Machine.links.(ip) with
    | Machine.L_target t -> Some (fun st -> retire cost st t)
    | _ -> None)
  | Instr.Jcc (c, _) -> (
    match jcc_target img ip with
    | Some t ->
      let ck = cond_kind c and ev = mk_cond c in
      Some (fun st -> jcc cost ck ev t next st)
    | None -> None)
  | Instr.MovQ_to_xmm (src, x) -> (
    let x8 = x * 8 in
    match src with
    | Instr.Imm v ->
      Some
        (fun st ->
          retire cost st next;
          let s = st.Machine.simd in
          bset s x8 v;
          bset s (x8 + 1) 0L)
    | Instr.Reg r ->
      let ri = Reg.gpr_index r in
      Some
        (fun st ->
          retire cost st next;
          let s = st.Machine.simd in
          bset s x8 (bget st.Machine.gpr ri);
          bset s (x8 + 1) 0L)
    | Instr.Mem m ->
      if not little_endian then None
      else
        let bi, xi, sc, disp = addr_parts m in
        Some
          (fun st ->
            retire cost st next;
            let a = guard st (ea st.Machine.gpr bi xi sc disp) 8 in
            let s = st.Machine.simd in
            bset s x8 (b_get64u st.Machine.mem a);
            bset s (x8 + 1) 0L))
  | Instr.MovQ_from_xmm (x, r) ->
    let x8 = x * 8 and di = Reg.gpr_index r in
    Some
      (fun st ->
        retire cost st next;
        bset st.Machine.gpr di (bget st.Machine.simd x8))
  | Instr.Pinsrq (lane, src, x) -> (
    let li = (x * 8) + lane in
    match src with
    | Instr.Psrc_reg r ->
      let ri = Reg.gpr_index r in
      Some
        (fun st ->
          retire cost st next;
          bset st.Machine.simd li (bget st.Machine.gpr ri))
    | Instr.Psrc_mem m ->
      if not little_endian then None
      else
        let bi, xi, sc, disp = addr_parts m in
        Some
          (fun st ->
            retire cost st next;
            let a = guard st (ea st.Machine.gpr bi xi sc disp) 8 in
            bset st.Machine.simd li (b_get64u st.Machine.mem a)))
  | Instr.Pextrq (lane, x, r) ->
    let li = (x * 8) + lane and di = Reg.gpr_index r in
    Some
      (fun st ->
        retire cost st next;
        bset st.Machine.gpr di (bget st.Machine.simd li))
  | Instr.Vinserti128 (half, sx, ax, dx) ->
    (* The half selector is a decode-time constant, so the four source
       lanes are fixed slots; reads complete before any write, exactly
       like the generic body (src/dst may alias). *)
    let s8 = sx * 8 and a8 = ax * 8 and d8 = dx * 8 in
    let l0 = if half = 0 then s8 else a8 in
    let l1 = l0 + 1 in
    let h0 = if half = 1 then s8 else a8 + 2 in
    let h1 = h0 + 1 in
    Some
      (fun st ->
        retire cost st next;
        let s = st.Machine.simd in
        let lo0 = bget s l0 in
        let lo1 = bget s l1 in
        let hi0 = bget s h0 in
        let hi1 = bget s h1 in
        bset s d8 lo0;
        bset s (d8 + 1) lo1;
        bset s (d8 + 2) hi0;
        bset s (d8 + 3) hi1)
  | Instr.Vpxor (ax, bx, dx) ->
    let a8 = ax * 8 and b8 = bx * 8 and d8 = dx * 8 in
    Some
      (fun st ->
        retire cost st next;
        vpxor256 st.Machine.simd a8 b8 d8)
  | Instr.Vptest (ax, bx) ->
    let a8 = ax * 8 and b8 = bx * 8 in
    Some
      (fun st ->
        retire cost st next;
        vptest256 st st.Machine.simd a8 b8)
  | Instr.Vpxorq512 (ax, bx, dx) ->
    let a8 = ax * 8 and b8 = bx * 8 and d8 = dx * 8 in
    Some
      (fun st ->
        retire cost st next;
        xor_lanes st.Machine.simd 8 a8 b8 d8)
  | Instr.Vptestmq512 (ax, bx) ->
    let a8 = ax * 8 and b8 = bx * 8 in
    Some
      (fun st ->
        retire cost st next;
        test_lanes st st.Machine.simd 8 a8 b8)
  | Instr.Call _ when little_endian -> (
    match img.Machine.links.(ip) with
    | Machine.L_call entry ->
      let ra = Int64.of_int next in
      Some
        (fun st ->
          retire cost st next;
          push64 st ra;
          st.Machine.ip <- entry)
    | _ -> None)
  | Instr.Ret when little_endian ->
    let halt_ip = img.Machine.halt_ip in
    let len = Array.length img.Machine.code in
    Some
      (fun st ->
        retire cost st next;
        let ra = Int64.to_int (pop64 st) in
        if ra = halt_ip then
          raise (Machine.Halt (Machine.Exit (Machine.output st)))
        else if ra < 0 || ra >= len then Machine.trap "wild return to %d" ra
        else st.Machine.ip <- ra)
  (* one closure per source kind: a [source] read of either would box
     the pushed value *)
  | Instr.Push (Instr.Reg r) when little_endian ->
    let ri = Reg.gpr_index r in
    Some
      (fun st ->
        retire cost st next;
        push64 st (bget st.Machine.gpr ri))
  | Instr.Push (Instr.Imm v) when little_endian ->
    Some
      (fun st ->
        retire cost st next;
        push64 st v)
  | Instr.Pop r when little_endian ->
    let di = Reg.gpr_index r in
    Some
      (fun st ->
        retire cost st next;
        let v = pop64 st in
        bset st.Machine.gpr di v)
  | Instr.Cqto ->
    let rax = Reg.gpr_index Reg.RAX and rdx = Reg.gpr_index Reg.RDX in
    Some
      (fun st ->
        retire cost st next;
        let g = st.Machine.gpr in
        bset g rdx (Int64.shift_right (bget g rax) 63))
  | Instr.Idiv (Reg.Q, src) -> (
    (* a corrupted RDX (not RAX's sign extension) is the divide
       error: the quotient of RDX:RAX would not fit in 64 bits *)
    let rax = Reg.gpr_index Reg.RAX and rdx = Reg.gpr_index Reg.RDX in
    match reg_or_imm src with
    | None -> None
    | Some (si, iv) ->
      Some
        (fun st ->
          retire cost st next;
          let g = st.Machine.gpr in
          let d = source g si iv in
          if Int64.equal d 0L then Machine.trap "divide by zero";
          let a = bget g rax in
          if not (Int64.equal (bget g rdx) (Int64.shift_right a 63)) then
            Machine.trap "divide overflow";
          bset g rax (Int64.div a d);
          bset g rdx (Int64.rem a d)))
  | _ -> None

(* Generic body: operand closures resolved at decode time.  Evaluation
   order and trap messages match the reference interpreter's, which the
   differential tests check. *)
let mk_body (img : Machine.image) ip (op : Instr.t) : Machine.state -> unit =
  match op with
  | Instr.Mov (s, src, dst) ->
    let rd = mk_read s src and wr = mk_write s dst in
    fun st ->
      let v = rd st in
      wr st v
  | Instr.Movslq (src, r) ->
    let rd = mk_read Reg.D src and wr = mk_write_gpr Reg.Q r in
    fun st -> wr st (Machine.sign_extend (rd st) Reg.D)
  | Instr.Movzbq (src, r) ->
    let rd = mk_read Reg.B src and wr = mk_write_gpr Reg.Q r in
    fun st -> wr st (rd st)
  | Instr.Lea (m, r) ->
    let ea = mk_ea m and wr = mk_write_gpr Reg.Q r in
    fun st -> wr st (ea st)
  | Instr.Alu (aop, s, src, dst) -> (
    let rda = mk_read s dst and rdb = mk_read s src in
    let wr = mk_write s dst in
    match aop with
    | Instr.Add ->
      fun st ->
        let a = rda st in
        let b = rdb st in
        let res = Int64.add a b in
        Machine.set_flags_add st s a b res;
        wr st res
    | Instr.Sub ->
      fun st ->
        let a = rda st in
        let b = rdb st in
        let res = Int64.sub a b in
        Machine.set_flags_sub st s a b res;
        wr st res
    | Instr.Imul ->
      fun st ->
        let a = rda st in
        let b = rdb st in
        let res =
          Int64.mul (Machine.sign_extend a s) (Machine.sign_extend b s)
        in
        Machine.set_flags_logic st s res;
        wr st res
    | Instr.And ->
      fun st ->
        let a = rda st in
        let b = rdb st in
        let res = Int64.logand a b in
        Machine.set_flags_logic st s res;
        wr st res
    | Instr.Or ->
      fun st ->
        let a = rda st in
        let b = rdb st in
        let res = Int64.logor a b in
        Machine.set_flags_logic st s res;
        wr st res
    | Instr.Xor ->
      fun st ->
        let a = rda st in
        let b = rdb st in
        let res = Int64.logxor a b in
        Machine.set_flags_logic st s res;
        wr st res)
  | Instr.Shift (k, s, amt, dst) ->
    let rda = mk_read s dst and wr = mk_write s dst in
    let amt_mask = if s = Reg.Q then 63 else 31 in
    let rdn =
      match amt with
      | Instr.Amt_imm n ->
        let n = n land amt_mask in
        fun _ -> n
      | Instr.Amt_cl ->
        fun (st : Machine.state) ->
          Int64.to_int (Machine.read_gpr st Reg.RCX Reg.B) land amt_mask
    in
    let shift =
      match k with
      | Instr.Shl -> fun a n -> Int64.shift_left a n
      | Instr.Sar -> fun a n -> Int64.shift_right (Machine.sign_extend a s) n
      | Instr.Shr ->
        let m = Machine.mask_of_size s in
        fun a n -> Int64.shift_right_logical (Int64.logand a m) n
    in
    fun st ->
      let a = rda st in
      let n = rdn st in
      let res = shift a n in
      Machine.set_flags_logic st s res;
      wr st res
  | Instr.Neg (s, dst) ->
    let rd = mk_read s dst and wr = mk_write s dst in
    fun st ->
      let a = rd st in
      let res = Int64.neg a in
      Machine.set_flags_sub st s 0L a res;
      wr st res
  | Instr.Not (s, dst) ->
    let rd = mk_read s dst and wr = mk_write s dst in
    fun st -> wr st (Int64.lognot (rd st))
  | Instr.Cmp (s, src, dst) ->
    let rda = mk_read s dst and rdb = mk_read s src in
    fun st ->
      let a = rda st in
      let b = rdb st in
      Machine.set_flags_sub st s a b (Int64.sub a b)
  | Instr.Test (s, src, dst) ->
    let rda = mk_read s dst and rdb = mk_read s src in
    fun st ->
      let a = rda st in
      let b = rdb st in
      Machine.set_flags_logic st s (Int64.logand a b)
  | Instr.Set (c, dst) ->
    let ev = mk_cond c and wr = mk_write Reg.B dst in
    fun st -> wr st (if ev st then 1L else 0L)
  | Instr.Jmp _ -> (
    match img.Machine.links.(ip) with
    | Machine.L_target t -> fun st -> st.Machine.ip <- t
    | Machine.L_detect -> fun _ -> raise (Machine.Halt Machine.Detected)
    | _ -> fun _ -> Machine.trap "bad jmp link")
  | Instr.Jcc (c, _) ->
    (* [fast_thunk] builds every jcc whose link resolved, to a target or
       to the detector ([jcc_target]); only a bad link reaches here. *)
    let ev = mk_cond c in
    fun st -> if ev st then Machine.trap "bad jcc link"
  | Instr.Call _ -> (
    match img.Machine.links.(ip) with
    | Machine.L_call entry ->
      fun st ->
        Machine.push st (Int64.of_int st.Machine.ip);
        st.Machine.ip <- entry
    | Machine.L_print ->
      let rdi = Reg.gpr_index Reg.RDI in
      fun st ->
        st.Machine.out_rev <- bget st.Machine.gpr rdi :: st.Machine.out_rev
    | Machine.L_detect -> fun _ -> raise (Machine.Halt Machine.Detected)
    | _ -> fun _ -> Machine.trap "bad call link")
  | Instr.Ret ->
    let halt_ip = img.Machine.halt_ip in
    let len = Array.length img.Machine.code in
    fun st ->
      let ra = Int64.to_int (Machine.pop st) in
      if ra = halt_ip then
        raise (Machine.Halt (Machine.Exit (Machine.output st)))
      else if ra < 0 || ra >= len then Machine.trap "wild return to %d" ra
      else st.Machine.ip <- ra
  | Instr.Push src ->
    let rd = mk_read Reg.Q src in
    fun st -> Machine.push st (rd st)
  | Instr.Pop r ->
    let wr = mk_write_gpr Reg.Q r in
    fun st -> wr st (Machine.pop st)
  | Instr.Idiv (s, src) ->
    if s <> Reg.Q then fun _ ->
      Machine.trap "idiv: only 64-bit division is supported"
    else
      let rd = mk_read Reg.Q src in
      let rax = Reg.gpr_index Reg.RAX and rdx_i = Reg.gpr_index Reg.RDX in
      fun st ->
        let d = rd st in
        if Int64.equal d 0L then Machine.trap "divide by zero";
        let a = bget st.Machine.gpr rax in
        let rdx = bget st.Machine.gpr rdx_i in
        if not (Int64.equal rdx (Int64.shift_right a 63)) then
          Machine.trap "divide overflow"
        else begin
          bset st.Machine.gpr rax (Int64.div a d);
          bset st.Machine.gpr rdx_i (Int64.rem a d)
        end
  | Instr.MovQ_to_xmm (src, x) ->
    let rd = mk_read Reg.Q src in
    fun st ->
      Machine.set_simd_lane st x 0 (rd st);
      Machine.set_simd_lane st x 1 0L
  | Instr.MovQ_from_xmm (x, r) ->
    let wr = mk_write_gpr Reg.Q r in
    fun st -> wr st (Machine.simd_lane st x 0)
  | Instr.Pinsrq (lane, src, x) ->
    let rd =
      match src with
      | Instr.Psrc_reg r ->
        let i = Reg.gpr_index r in
        fun (st : Machine.state) -> bget st.Machine.gpr i
      | Instr.Psrc_mem m ->
        let ea = mk_ea m in
        fun st -> Machine.read_mem st (ea st) Reg.Q
    in
    fun st -> Machine.set_simd_lane st x lane (rd st)
  | Instr.Pextrq (lane, x, r) ->
    let wr = mk_write_gpr Reg.Q r in
    fun st -> wr st (Machine.simd_lane st x lane)
  | Instr.Vinserti128 (half, s, a, d) ->
    fun st ->
      let lo0, lo1 =
        if half = 0 then (Machine.simd_lane st s 0, Machine.simd_lane st s 1)
        else (Machine.simd_lane st a 0, Machine.simd_lane st a 1)
      in
      let hi0, hi1 =
        if half = 1 then (Machine.simd_lane st s 0, Machine.simd_lane st s 1)
        else (Machine.simd_lane st a 2, Machine.simd_lane st a 3)
      in
      Machine.set_simd_lane st d 0 lo0;
      Machine.set_simd_lane st d 1 lo1;
      Machine.set_simd_lane st d 2 hi0;
      Machine.set_simd_lane st d 3 hi1
  | Instr.Cqto | Instr.Vpxor _ | Instr.Vpxorq512 _ | Instr.Vptest _
  | Instr.Vptestmq512 _ ->
    (* [fast_thunk] claims every instance of these five on every host:
       its arms are their only definition. *)
    invalid_arg "Predecode.mk_body: fast_thunk builds cqto and SIMD xor/test"
  | Instr.Vinserti64x4 (half, src, a, d) ->
    fun st ->
      (* read everything first: src/a may alias d *)
      let src_lanes = Array.init 4 (Machine.simd_lane st src) in
      let a_lanes = Array.init 8 (Machine.simd_lane st a) in
      for lane = 0 to 7 do
        let v =
          if half = 0 && lane < 4 then src_lanes.(lane)
          else if half = 1 && lane >= 4 then src_lanes.(lane - 4)
          else a_lanes.(lane)
        in
        Machine.set_simd_lane st d lane v
      done

(* The thunk for [ip], and whether [fast_thunk] specialized it. *)
let mk_thunk (img : Machine.image) ip : (Machine.state -> unit) * bool =
  let cost = img.Machine.costs.(ip) in
  let next = ip + 1 in
  let op = img.Machine.code.(ip).Instr.op in
  match fast_thunk ~cost ~next img ip op with
  | Some t -> (t, true)
  | None ->
    let body = mk_body img ip op in
    ( (fun st ->
        retire cost st next;
        body st),
      false )

(* ------------------------------------------------------------------ *)
(* Flattened superinstruction bodies.                                  *)
(* ------------------------------------------------------------------ *)

(* Build the flattened pair thunk for [ip] and [ip+1], or [None] when
   no specialized combination applies (the generic two-call wrapper is
   used instead).  Each half replays the exact standalone step: cycle
   cost, step count, [ip] update, then the body — so a trap or fuel
   timeout between the halves leaves the same architectural state
   single-stepping would. *)
let fuse_pair (fuel : int ref) count (fused : (Machine.state -> unit) array)
    len (img : Machine.image) ip : (Machine.state -> unit) option =
  let c1 = img.Machine.costs.(ip) and c2 = img.Machine.costs.(ip + 1) in
  let n1 = ip + 1 and n2 = ip + 2 in
  let op1 = img.Machine.code.(ip).Instr.op
  and op2 = img.Machine.code.(ip + 1).Instr.op in
  match (op1, op2) with
  | Instr.Vpxor (ax, bx, dx), Instr.Vptest (tx, ty) ->
    (* the duplicate-check sequence the transforms emit: xor the
       replica into a scratch register, then test it *)
    let a8 = ax * 8 and b8 = bx * 8 and d8 = dx * 8 in
    let t8 = tx * 8 and u8 = ty * 8 in
    Some
      (fun st ->
        retire c1 st n1;
        let s = st.Machine.simd in
        vpxor256 s a8 b8 d8;
        check_fuel fuel st;
        retire c2 st n2;
        vptest256 st s t8 u8;
        chain fuel count fused len st)
  | Instr.Vptest (ax, bx), Instr.Jcc (c, _) -> (
    match jcc_target img (ip + 1) with
    | Some t ->
      (* detector branch: test the accumulated difference mask, then
         jump on the resulting ZF *)
      let a8 = ax * 8 and b8 = bx * 8 in
      let ck = cond_kind c and ev = mk_cond c in
      Some
        (fun st ->
          retire c1 st n1;
          vptest256 st st.Machine.simd a8 b8;
          check_fuel fuel st;
          jcc c2 ck ev t n2 st;
          chain fuel count fused len st)
    | None -> None)
  | Instr.Cmp (Reg.B, src, dst), Instr.Jcc (c, _) -> (
    match (jcc_target img (ip + 1), reg_or_imm src, byte_dest dst) with
    | Some t, Some (si, iv), Some (di, (bi, xi, sc, disp)) ->
      let iv8 = low8 iv in
      let ck = cond_kind c and ev = mk_cond c in
      Some
        (fun st ->
          retire c1 st n1;
          let g = st.Machine.gpr in
          flags_sub8 st (dest8 st g di bi xi sc disp) (source8 g si iv8);
          check_fuel fuel st;
          jcc c2 ck ev t n2 st;
          chain fuel count fused len st)
    | _ -> None)
  | Instr.Cmp (Reg.Q, src, Instr.Reg d), Instr.Jcc (c, _) -> (
    match (jcc_target img (ip + 1), reg_or_imm src) with
    | Some t, Some (si, iv) ->
      let di = Reg.gpr_index d in
      let ck = cond_kind c and ev = mk_cond c in
      Some
        (fun st ->
          retire c1 st n1;
          let g = st.Machine.gpr in
          let a = bget g di and b = source g si iv in
          flags_sub st a b (Int64.sub a b);
          check_fuel fuel st;
          jcc c2 ck ev t n2 st;
          chain fuel count fused len st)
    | _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Superinstruction pattern table.                                     *)
(* ------------------------------------------------------------------ *)

(* A pair head must fall through unconditionally so the second half
   always executes when the first does. *)
let fall_through (op : Instr.t) =
  match op with
  | Instr.Jmp _ | Instr.Jcc _ | Instr.Call _ | Instr.Ret -> false
  | _ -> true

let is_flag_producer (op : Instr.t) =
  match op with
  | Instr.Cmp _ | Instr.Test _ | Instr.Vptest _ | Instr.Vptestmq512 _ -> true
  | _ -> false

let is_alu_like (op : Instr.t) =
  match op with
  | Instr.Alu _ | Instr.Cmp _ | Instr.Test _ | Instr.Shift _ | Instr.Neg _
  | Instr.Not _ ->
    true
  | _ -> false

(* SIMD shadow-stream producers: the duplicate half of the protection
   transforms' dup/check traffic. *)
let is_dup_op (op : Instr.t) =
  match op with
  | Instr.MovQ_to_xmm _ | Instr.Pinsrq _ -> true
  | _ -> false

type pattern = {
  p_name : string;
  p_match : Instr.ins -> Instr.ins -> bool;
}

(* Ordered: the first matching pattern names the pair.  The table
   follows the dynamic profile of the protected catalogue, which is
   dominated by duplicate/check traffic: "dup+dup" and "mov+dup" cover
   the back-to-back SIMD duplication the transforms emit after every
   protected value, "dup+check"/"check+check" the batched checking
   sequences, "cmp+jcc" the detector branch, "load+alu" a memory load
   feeding the next ALU op, and "lea+mov" address formation feeding a
   move. *)
let patterns =
  [ {
      p_name = "cmp+jcc";
      p_match =
        (fun a b ->
          is_flag_producer a.Instr.op
          && match b.Instr.op with Instr.Jcc _ -> true | _ -> false);
    };
    {
      p_name = "dup+check";
      p_match =
        (fun a b ->
          a.Instr.prov = Instr.Dup && b.Instr.prov = Instr.Check
          && fall_through b.Instr.op);
    };
    {
      p_name = "dup+dup";
      p_match = (fun a b -> is_dup_op a.Instr.op && is_dup_op b.Instr.op);
    };
    {
      p_name = "mov+dup";
      p_match =
        (fun a b ->
          (match a.Instr.op with Instr.Mov _ -> true | _ -> false)
          && is_dup_op b.Instr.op);
    };
    {
      p_name = "check+check";
      p_match =
        (fun a b ->
          a.Instr.prov = Instr.Check && b.Instr.prov = Instr.Check
          && fall_through a.Instr.op && fall_through b.Instr.op);
    };
    {
      p_name = "load+alu";
      p_match =
        (fun a b ->
          (match a.Instr.op with
          | Instr.Mov (_, Instr.Mem _, Instr.Reg _) -> true
          | _ -> false)
          && is_alu_like b.Instr.op);
    };
    {
      p_name = "alu+alu";
      p_match =
        (fun a b ->
          let reg_only (op : Instr.t) =
            match op with
            | Instr.Alu (_, _, (Instr.Reg _ | Instr.Imm _), Instr.Reg _)
            | Instr.Cmp (_, (Instr.Reg _ | Instr.Imm _), Instr.Reg _) ->
              true
            | _ -> false
          in
          reg_only a.Instr.op && reg_only b.Instr.op);
    };
    {
      p_name = "lea+mov";
      p_match =
        (fun a b ->
          (match a.Instr.op with Instr.Lea _ -> true | _ -> false)
          && match b.Instr.op with Instr.Mov _ -> true | _ -> false);
    };
    (* Catch-all: any remaining fall-through head pairs with its
       successor.  The named patterns above take display priority; this
       one keeps the dispatch win on the long tail of pair shapes. *)
    { p_name = "pair"; p_match = (fun _ _ -> true) };
  ]

(* ------------------------------------------------------------------ *)
(* Decoding.                                                           *)
(* ------------------------------------------------------------------ *)

let decode ?avoid (img : Machine.image) : t =
  let len = Array.length img.Machine.code in
  let made = Array.init len (mk_thunk img) in
  let thunks = Array.map fst made in
  (* Join points: indices where control can enter other than by falling
     through from the previous instruction.  Fusion is bypassed when the
     second half of a pair is one. *)
  let join = Array.make (max 1 len) false in
  if img.Machine.entry_ip < len then join.(img.Machine.entry_ip) <- true;
  Array.iteri
    (fun ip link ->
      (match link with
      | Machine.L_target t | Machine.L_call t -> if t < len then join.(t) <- true
      | _ -> ());
      match img.Machine.code.(ip).Instr.op with
      | Instr.Call _ -> if ip + 1 < len then join.(ip + 1) <- true
      | _ -> ())
    img.Machine.links;
  let fused = Array.make (max 1 len) (fun (_ : Machine.state) -> ()) in
  Array.blit thunks 0 fused 0 len;
  let fused_name = Array.make len "" in
  let n_fused = ref 0 in
  let counts = List.map (fun p -> (p.p_name, ref 0)) patterns in
  let fuel = ref max_int and count = ref 0 in
  for ip = 0 to len - 2 do
    let a = img.Machine.code.(ip) and b = img.Machine.code.(ip + 1) in
    if
      fall_through a.Instr.op
      && (not join.(ip + 1))
      && (match avoid with Some av -> not av.(ip + 1) | None -> true)
    then
      match List.find_opt (fun p -> p.p_match a b) patterns with
      | None -> ()
      | Some p ->
        fused_name.(ip) <- p.p_name;
        incr n_fused;
        incr (List.assoc p.p_name counts);
        (match fuse_pair fuel count fused len img ip with
        | Some flat -> fused.(ip) <- flat
        | None ->
          let t1 = thunks.(ip) and t2 = thunks.(ip + 1) in
          fused.(ip) <-
            (fun st ->
              t1 st;
              check_fuel fuel st;
              t2 st;
              chain fuel count fused len st))
  done;
  {
    thunks;
    specialized = Array.map snd made;
    fused;
    fused_name;
    n_fused = !n_fused;
    pattern_counts = List.map (fun (n, r) -> (n, !r)) counts;
    fuel;
    fused_steps = count;
  }

(* ------------------------------------------------------------------ *)
(* Static accessors.                                                   *)
(* ------------------------------------------------------------------ *)

let length p = Array.length p.thunks

let fused_pairs p = p.n_fused

let pattern_counts p = p.pattern_counts

(* Pattern name when [ip] starts a fused pair, else [""]. *)
let fused_name p ip = p.fused_name.(ip)

let is_fused_start p ip = p.fused_name.(ip) <> ""

let is_specialized p ip = p.specialized.(ip)

(* ------------------------------------------------------------------ *)
(* Execution loops.                                                    *)
(* ------------------------------------------------------------------ *)

(* The unobserved fast path: threaded dispatch over the fused thunk
   array. *)
let exec ?(fuel = Machine.default_fuel) (p : t) (st : Machine.state) =
  let len = Array.length p.thunks in
  let fused = p.fused in
  p.fuel := fuel;
  try
    while st.Machine.steps < fuel do
      let ip = st.Machine.ip in
      if ip >= len || ip < 0 then Machine.trap "control reached 0x%x" ip;
      (aget fused ip) st
    done;
    Machine.Timeout
  with
  | Machine.Halt o -> o
  | Machine.Trap msg -> Machine.Crash msg
  | Fuel -> Machine.Timeout

let fused_steps p = !(p.fused_steps)

(* One pre-decoded step; returns the retired static index.  Raises
   [Machine.Halt] when the program ends and [Machine.Trap] on a machine
   fault.  Never fused, so callers that stop at exact step or site
   boundaries (prefix replay) stay exact.  The caller checks [st.ip]
   bounds. *)
let step1 (p : t) (st : Machine.state) =
  let ip = st.Machine.ip in
  (aget p.thunks ip) st;
  ip

(* The observed path: [on_step] receives the state and the static index
   of the instruction that just retired (its destinations are in
   [img.dests]), including the halting one, and its mutations are
   visible to the next step.  Fusion is bypassed so injection sites and
   lockstep replicas see the exact retirement stream. *)
let exec_observed ?(fuel = Machine.default_fuel) ~on_step (p : t)
    (st : Machine.state) =
  let len = Array.length p.thunks in
  let thunks = p.thunks in
  try
    while st.Machine.steps < fuel do
      let ip0 = st.Machine.ip in
      if ip0 >= len || ip0 < 0 then Machine.trap "control reached 0x%x" ip0;
      match (aget thunks ip0) st with
      | () -> on_step st ip0
      | exception Machine.Halt o ->
        on_step st ip0;
        raise (Machine.Halt o)
    done;
    Machine.Timeout
  with
  | Machine.Halt o -> o
  | Machine.Trap msg -> Machine.Crash msg

(* ------------------------------------------------------------------ *)
(* Whole-program runs of a fresh decode.                             *)
(* ------------------------------------------------------------------ *)

(* Run to halt, trap or fuel exhaustion: {!exec} without an observer,
   {!exec_observed} with one. *)
let run ?fuel ?on_step (img : Machine.image) (st : Machine.state) =
  let p = decode img in
  match on_step with
  | None -> exec ?fuel p st
  | Some on_step -> exec_observed ?fuel ~on_step p st

(* Run from a fresh state; returns the outcome and the final state. *)
let run_fresh ?fuel ?on_step img =
  let st = Machine.fresh_state img in
  let outcome = run ?fuel ?on_step img st in
  (outcome, st)

(* Fault-free execution summary used by campaigns and benches. *)
type golden = {
  outcome : Machine.outcome;
  dyn_instructions : int;
  cycles : float;
}

let golden ?fuel img =
  let outcome, st = run_fresh ?fuel img in
  {
    outcome;
    dyn_instructions = st.Machine.steps;
    cycles = st.Machine.cycles.Machine.fv;
  }
