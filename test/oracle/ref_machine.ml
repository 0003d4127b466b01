(* Reference interpreter: the test oracle for {!Ferrum_machine.Predecode}.

   A direct constructor-matching interpreter over {!Machine.image}:
   every step re-matches the opcode and its operands, re-resolves
   effective addresses and re-reads the link table.  It shares the
   machine's state, memory access, flag and stack helpers but none of
   the decoded closure compiler, so the differential tests can check
   every production dispatch loop against it.  Outcomes, steps,
   cycles, traps (messages included) and dirty pages are the contract
   the decoded thunks must reproduce bit for bit. *)

open Ferrum_asm
open Ferrum_machine.Machine

(* x86 semantics: 32-bit writes zero the upper half, 8/16-bit writes
   merge into the old value. *)
let write_gpr st r s v =
  let i = Reg.gpr_index r in
  match s with
  | Reg.Q -> st.gpr.{i} <- v
  | Reg.D -> st.gpr.{i} <- Int64.logand v 0xFFFFFFFFL
  | Reg.W ->
    st.gpr.{i} <-
      Int64.logor
        (Int64.logand st.gpr.{i} (Int64.lognot 0xFFFFL))
        (Int64.logand v 0xFFFFL)
  | Reg.B ->
    st.gpr.{i} <-
      Int64.logor
        (Int64.logand st.gpr.{i} (Int64.lognot 0xFFL))
        (Int64.logand v 0xFFL)

let read_operand st s = function
  | Instr.Imm i -> Int64.logand i (mask_of_size s)
  | Instr.Reg r -> read_gpr st r s
  | Instr.Mem m -> read_mem st (effective_address st m) s

let write_operand st s v = function
  | Instr.Imm _ -> trap "write to immediate"
  | Instr.Reg r -> write_gpr st r s v
  | Instr.Mem m -> write_mem st (effective_address st m) s v

let eval_cond st c = Cond.eval c ~zf:st.zf ~sf:st.sf ~cf:st.cf ~of_:st.off


let exec_alu st op s src dst =
  let a = read_operand st s dst and b = read_operand st s src in
  let res =
    match op with
    | Instr.Add -> Int64.add a b
    | Instr.Sub -> Int64.sub a b
    | Instr.Imul -> Int64.mul (sign_extend a s) (sign_extend b s)
    | Instr.And -> Int64.logand a b
    | Instr.Or -> Int64.logor a b
    | Instr.Xor -> Int64.logxor a b
  in
  (match op with
  | Instr.Add -> set_flags_add st s a b res
  | Instr.Sub -> set_flags_sub st s a b res
  | Instr.Imul | Instr.And | Instr.Or | Instr.Xor -> set_flags_logic st s res);
  write_operand st s res dst

let exec_shift st k s amt dst =
  let a = read_operand st s dst in
  let n =
    match amt with
    | Instr.Amt_imm n -> n
    | Instr.Amt_cl -> Int64.to_int (read_gpr st Reg.RCX Reg.B)
  in
  let n = n land (if s = Reg.Q then 63 else 31) in
  let res =
    match k with
    | Instr.Shl -> Int64.shift_left a n
    | Instr.Sar -> Int64.shift_right (sign_extend a s) n
    | Instr.Shr -> Int64.shift_right_logical (Int64.logand a (mask_of_size s)) n
  in
  set_flags_logic st s res;
  write_operand st s res dst

let step (img : image) (st : state) =
  let ip = st.ip in
  let ins = img.code.(ip) in
  st.cycles.fv <- st.cycles.fv +. img.costs.(ip);
  st.steps <- st.steps + 1;
  st.ip <- ip + 1;
  (match ins.op with
  | Instr.Mov (s, src, dst) -> write_operand st s (read_operand st s src) dst
  | Instr.Movslq (src, r) ->
    write_gpr st r Reg.Q (sign_extend (read_operand st Reg.D src) Reg.D)
  | Instr.Movzbq (src, r) -> write_gpr st r Reg.Q (read_operand st Reg.B src)
  | Instr.Lea (m, r) -> write_gpr st r Reg.Q (effective_address st m)
  | Instr.Alu (op, s, src, dst) -> exec_alu st op s src dst
  | Instr.Shift (k, s, amt, dst) -> exec_shift st k s amt dst
  | Instr.Neg (s, dst) ->
    let a = read_operand st s dst in
    let res = Int64.neg a in
    set_flags_sub st s 0L a res;
    write_operand st s res dst
  | Instr.Not (s, dst) ->
    write_operand st s (Int64.lognot (read_operand st s dst)) dst
  | Instr.Cmp (s, src, dst) ->
    let a = read_operand st s dst and b = read_operand st s src in
    set_flags_sub st s a b (Int64.sub a b)
  | Instr.Test (s, src, dst) ->
    let a = read_operand st s dst and b = read_operand st s src in
    set_flags_logic st s (Int64.logand a b)
  | Instr.Set (c, dst) ->
    write_operand st Reg.B (if eval_cond st c then 1L else 0L) dst
  | Instr.Jmp _ -> (
    match img.links.(ip) with
    | L_target t -> st.ip <- t
    | L_detect -> raise (Halt Detected)
    | _ -> trap "bad jmp link")
  | Instr.Jcc (c, _) ->
    if eval_cond st c then (
      match img.links.(ip) with
      | L_target t -> st.ip <- t
      | L_detect -> raise (Halt Detected)
      | _ -> trap "bad jcc link")
  | Instr.Call _ -> (
    match img.links.(ip) with
    | L_call entry ->
      push st (Int64.of_int st.ip);
      st.ip <- entry
    | L_print -> st.out_rev <- st.gpr.{Reg.gpr_index Reg.RDI} :: st.out_rev
    | L_detect -> raise (Halt Detected)
    | _ -> trap "bad call link")
  | Instr.Ret ->
    let ra = Int64.to_int (pop st) in
    if ra = img.halt_ip then raise (Halt (Exit (output st)))
    else if ra < 0 || ra >= Array.length img.code then
      trap "wild return to %d" ra
    else st.ip <- ra
  | Instr.Push src -> push st (read_operand st Reg.Q src)
  | Instr.Pop r -> write_gpr st r Reg.Q (pop st)
  | Instr.Cqto ->
    let a = st.gpr.{Reg.gpr_index Reg.RAX} in
    st.gpr.{Reg.gpr_index Reg.RDX} <- Int64.shift_right a 63
  | Instr.Idiv (s, src) ->
    if s <> Reg.Q then trap "idiv: only 64-bit division is supported";
    let d = read_operand st s src in
    if Int64.equal d 0L then trap "divide by zero";
    let rax = st.gpr.{Reg.gpr_index Reg.RAX} in
    let rdx = st.gpr.{Reg.gpr_index Reg.RDX} in
    (* The backend always sign-extends with cqto first; anything else
       denotes a corrupted RDX and raises the divide-error trap, as the
       quotient would not fit in 64 bits. *)
    if not (Int64.equal rdx (Int64.shift_right rax 63)) then
      trap "divide overflow"
    else begin
      st.gpr.{Reg.gpr_index Reg.RAX} <- Int64.div rax d;
      st.gpr.{Reg.gpr_index Reg.RDX} <- Int64.rem rax d
    end
  | Instr.MovQ_to_xmm (src, x) ->
    set_simd_lane st x 0 (read_operand st Reg.Q src);
    set_simd_lane st x 1 0L
  | Instr.MovQ_from_xmm (x, r) -> write_gpr st r Reg.Q (simd_lane st x 0)
  | Instr.Pinsrq (lane, src, x) ->
    let v =
      match src with
      | Instr.Psrc_reg r -> read_gpr st r Reg.Q
      | Instr.Psrc_mem m -> read_mem st (effective_address st m) Reg.Q
    in
    set_simd_lane st x lane v
  | Instr.Pextrq (lane, x, r) -> write_gpr st r Reg.Q (simd_lane st x lane)
  | Instr.Vinserti128 (half, s, a, d) ->
    let lo0, lo1 =
      if half = 0 then (simd_lane st s 0, simd_lane st s 1)
      else (simd_lane st a 0, simd_lane st a 1)
    in
    let hi0, hi1 =
      if half = 1 then (simd_lane st s 0, simd_lane st s 1)
      else (simd_lane st a 2, simd_lane st a 3)
    in
    set_simd_lane st d 0 lo0;
    set_simd_lane st d 1 lo1;
    set_simd_lane st d 2 hi0;
    set_simd_lane st d 3 hi1
  | Instr.Vpxor (a, b, d) ->
    for lane = 0 to 3 do
      set_simd_lane st d lane
        (Int64.logxor (simd_lane st a lane) (simd_lane st b lane))
    done
  | Instr.Vptest (a, b) ->
    let and_zero = ref true and andn_zero = ref true in
    for lane = 0 to 3 do
      let va = simd_lane st a lane and vb = simd_lane st b lane in
      if not (Int64.equal (Int64.logand vb va) 0L) then and_zero := false;
      if not (Int64.equal (Int64.logand vb (Int64.lognot va)) 0L) then
        andn_zero := false
    done;
    st.zf <- !and_zero;
    st.cf <- !andn_zero;
    st.sf <- false;
    st.off <- false
  | Instr.Vinserti64x4 (half, src, a, d) ->
    (* read everything first: src/a may alias d *)
    let src_lanes = Array.init 4 (simd_lane st src) in
    let a_lanes = Array.init 8 (simd_lane st a) in
    for lane = 0 to 7 do
      let v =
        if half = 0 && lane < 4 then src_lanes.(lane)
        else if half = 1 && lane >= 4 then src_lanes.(lane - 4)
        else a_lanes.(lane)
      in
      set_simd_lane st d lane v
    done
  | Instr.Vpxorq512 (a, b, d) ->
    for lane = 0 to 7 do
      set_simd_lane st d lane
        (Int64.logxor (simd_lane st a lane) (simd_lane st b lane))
    done
  | Instr.Vptestmq512 (a, b) ->
    let and_zero = ref true and andn_zero = ref true in
    for lane = 0 to 7 do
      let va = simd_lane st a lane and vb = simd_lane st b lane in
      if not (Int64.equal (Int64.logand vb va) 0L) then and_zero := false;
      if not (Int64.equal (Int64.logand vb (Int64.lognot va)) 0L) then
        andn_zero := false
    done;
    st.zf <- !and_zero;
    st.cf <- !andn_zero;
    st.sf <- false;
    st.off <- false);
  ip

(* The two run loops are split so the no-observer case pays neither the
   option branch nor the observer indirection per retired instruction;
   {!run} dispatches on [on_step] exactly once. *)
let run_unobserved ~fuel (img : image) (st : state) =
  let len = Array.length img.code in
  try
    while st.steps < fuel do
      if st.ip >= len || st.ip < 0 then trap "control reached 0x%x" st.ip;
      ignore (step img st)
    done;
    Timeout
  with
  | Halt o -> o
  | Trap msg -> Crash msg

let run_observed ~fuel ~f (img : image) (st : state) =
  let len = Array.length img.code in
  try
    while st.steps < fuel do
      if st.ip >= len || st.ip < 0 then trap "control reached 0x%x" st.ip;
      let ip0 = st.ip in
      (match step img st with
      | idx -> f st idx
      | exception Halt o ->
        f st ip0;
        raise (Halt o))
    done;
    Timeout
  with
  | Halt o -> o
  | Trap msg -> Crash msg

(* Run to completion.  [on_step] receives the state and the static index
   of the instruction that just retired (its destinations are in
   [img.dests]); mutations it performs are visible to the next step.
   The halting instruction is observed too (it retired: its steps and
   cycles are accounted); halting instructions define no injectable
   destinations, so fault-injection sampling is unaffected. *)
let run ?(fuel = default_fuel) ?on_step (img : image) (st : state) =
  match on_step with
  | None -> run_unobserved ~fuel img st
  | Some f -> run_observed ~fuel ~f img st


(* ------------------------------------------------------------------ *)
(* State comparison.                                                   *)
(* ------------------------------------------------------------------ *)

let dirty_pages st =
  match st.track with
  | None -> None
  | Some tr -> Some (Array.to_list (Array.sub tr.tr_pages 0 tr.tr_count))

(* The first architectural field where two states differ, by name. *)
let diff_state (a : state) (b : state) =
  let regs name ra rb =
    let n = Bigarray.Array1.dim ra in
    let rec go i =
      if i >= n then None
      else if Int64.equal ra.{i} rb.{i} then go (i + 1)
      else Some (Printf.sprintf "%s[%d]: %Lx vs %Lx" name i ra.{i} rb.{i})
    in
    go 0
  in
  let first = List.find_map (fun f -> f ()) in
  first
    [ (fun () -> regs "gpr" a.gpr b.gpr);
      (fun () -> regs "simd" a.simd b.simd);
      (fun () ->
        if (a.zf, a.sf, a.cf, a.off) = (b.zf, b.sf, b.cf, b.off) then None
        else Some "flags");
      (fun () ->
        if a.ip = b.ip then None
        else Some (Printf.sprintf "ip: %d vs %d" a.ip b.ip));
      (fun () ->
        if a.steps = b.steps then None
        else Some (Printf.sprintf "steps: %d vs %d" a.steps b.steps));
      (fun () ->
        if Int64.equal (Int64.bits_of_float a.cycles.fv)
             (Int64.bits_of_float b.cycles.fv)
        then None
        else Some (Printf.sprintf "cycles: %h vs %h" a.cycles.fv b.cycles.fv));
      (fun () -> if a.out_rev = b.out_rev then None else Some "output");
      (fun () -> if Bytes.equal a.mem b.mem then None else Some "memory");
      (fun () ->
        if dirty_pages a = dirty_pages b then None else Some "dirty pages") ]
