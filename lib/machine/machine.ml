(* Deterministic x86-64 subset simulator: loaded images and state.

   The simulator executes flattened {!Ferrum_asm.Prog.t} programs over an
   architectural state (16 GPRs, 16 SIMD registers of 8 x 64-bit lanes —
   ZMM width — ZF/SF/CF/OF, byte-addressable little-endian memory).  It reports one
   of four outcomes, matching the fault-injection literature's
   classification: normal exit with observable output, detection (control
   reached [exit_function] or [__ferrum_detect]), crash (memory trap,
   divide error, wild control transfer, stack overflow) or timeout.

   This module owns loading, the state, memory/flag/stack helpers and the
   fault-injection mutators.  Instruction behaviour is defined once, by
   {!Predecode}'s closure compiler, which also provides the run loops. *)

open Ferrum_asm

type outcome =
  | Exit of int64 list (* program output, oldest first *)
  | Detected
  | Crash of string
  | Timeout

let equal_outcome a b =
  match (a, b) with
  | Exit x, Exit y -> List.compare_lengths x y = 0 && List.for_all2 Int64.equal x y
  | Detected, Detected | Timeout, Timeout -> true
  | Crash _, Crash _ -> true
  | _ -> false

let pp_outcome ppf = function
  | Exit out -> Fmt.pf ppf "exit [%a]" Fmt.(list ~sep:(any "; ") int64) out
  | Detected -> Fmt.string ppf "detected"
  | Crash msg -> Fmt.pf ppf "crash (%s)" msg
  | Timeout -> Fmt.string ppf "timeout"

(* Pre-resolved control-flow target of an instruction. *)
type link =
  | L_none
  | L_target of int (* jmp/jcc destination *)
  | L_call of int (* callee entry index *)
  | L_detect (* transfer to the detector *)
  | L_print (* builtin print_i64 *)

type image = {
  code : Instr.ins array;
  links : link array;
  costs : float array;
  dests : Instr.dest list array; (* injectable destinations per index *)
  entry_ip : int;
  halt_ip : int; (* sentinel return address of the entry function *)
  mem_size : int;
}

exception Trap of string

exception Halt of outcome

let trap fmt = Printf.ksprintf (fun s -> raise (Trap s)) fmt

(* ------------------------------------------------------------------ *)
(* Loading: flatten blocks, resolve labels and calls.                  *)
(* ------------------------------------------------------------------ *)

let load ?(cost_model = Cost.default) ?(mem_size = 1 lsl 20) (p : Prog.t) =
  Prog.validate p;
  let code = ref [] and n = ref 0 in
  let label_ix = Hashtbl.create 64 in
  let func_ix = Hashtbl.create 16 in
  List.iter
    (fun (f : Prog.func) ->
      Hashtbl.replace func_ix f.fname !n;
      List.iter
        (fun (b : Prog.block) ->
          if Hashtbl.mem label_ix b.label then
            Prog.ill_formed "duplicate label across program: %s" b.label;
          Hashtbl.replace label_ix b.label !n;
          List.iter
            (fun i ->
              code := i :: !code;
              incr n)
            b.insns)
        f.blocks)
    p.funcs;
  let code = Array.of_list (List.rev !code) in
  let len = Array.length code in
  let resolve_label l =
    if String.equal l Prog.exit_function_label then L_detect
    else
      match Hashtbl.find_opt label_ix l with
      | Some i -> L_target i
      | None -> Prog.ill_formed "unresolved label %s" l
  in
  let links =
    Array.map
      (fun (i : Instr.ins) ->
        match i.op with
        | Instr.Jmp l | Instr.Jcc (_, l) -> resolve_label l
        | Instr.Call f ->
          if String.equal f Prog.builtin_print then L_print
          else if String.equal f Prog.builtin_detect then L_detect
          else (
            match Hashtbl.find_opt func_ix f with
            | Some i -> L_call i
            | None -> Prog.ill_formed "unresolved call %s" f)
        | _ -> L_none)
      code
  in
  let costs = Array.map (Cost.cost cost_model) code in
  let dests = Array.map (fun (i : Instr.ins) -> Instr.defs i.op) code in
  let entry_ip =
    match Hashtbl.find_opt func_ix p.entry with
    | Some i -> i
    | None -> Prog.ill_formed "no entry %s" p.entry
  in
  { code; links; costs; dests; entry_ip; halt_ip = len + 1; mem_size }

(* ------------------------------------------------------------------ *)
(* Architectural state.                                                *)
(* ------------------------------------------------------------------ *)

(* Dirty-page log: which memory pages have been written since the last
   {!clear_dirty}.  The bitmap makes the per-write test O(1); the page
   list makes clearing and iteration proportional to the pages actually
   touched, never to the address space.  Attached on demand
   ({!track_writes}) so an untracked run pays one [None] branch per
   store; {!Snapshot} and the pooled injection loops are the users. *)
type track = {
  tr_bits : Bytes.t; (* one byte per page: '\001' = dirty *)
  tr_pages : int array; (* dirty page numbers, insertion order *)
  mutable tr_count : int;
}

let page_bits = 12

let page_size = 1 lsl page_bits

type regfile = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

let make_regfile n : regfile =
  let a = Bigarray.Array1.create Bigarray.Int64 Bigarray.C_layout n in
  Bigarray.Array1.fill a 0L;
  a

let copy_regfile (r : regfile) : regfile =
  let c = Bigarray.Array1.create Bigarray.Int64 Bigarray.C_layout
      (Bigarray.Array1.dim r) in
  Bigarray.Array1.blit r c;
  c

let blit_regfile (src : regfile) (dst : regfile) = Bigarray.Array1.blit src dst

let dump_regfile (r : regfile) =
  Array.init (Bigarray.Array1.dim r) (Bigarray.Array1.get r)

(* A record whose fields are all [float] is stored flat, so
   [c.fv <- c.fv +. cost] neither allocates nor takes the write barrier
   (a [mutable] float field of the mixed-field [state] would box every
   update). *)
type fcell = { mutable fv : float }

type state = {
  gpr : regfile; (* 16 *)
  simd : regfile; (* 16 registers x 8 lanes (ZMM width) *)
  mutable zf : bool;
  mutable sf : bool;
  mutable cf : bool;
  mutable off : bool; (* OF *)
  mem : Bytes.t;
  mutable ip : int;
  cycles : fcell; (* owned by this state: copied by value, never shared *)
  mutable steps : int;
  mutable out_rev : int64 list;
  mutable track : track option;
}

let mark_page tr p =
  if Prims.byte_get tr.tr_bits p = '\000' then begin
    Prims.byte_set tr.tr_bits p '\001';
    tr.tr_pages.(tr.tr_count) <- p;
    tr.tr_count <- tr.tr_count + 1
  end

let num_pages st = (Bytes.length st.mem + page_size - 1) lsr page_bits

let track_writes st =
  match st.track with
  | Some _ -> ()
  | None ->
    let n = num_pages st in
    st.track <-
      Some { tr_bits = Bytes.make n '\000'; tr_pages = Array.make n 0;
             tr_count = 0 }

let clear_dirty st =
  match st.track with
  | None -> ()
  | Some tr ->
    for i = 0 to tr.tr_count - 1 do
      Prims.byte_set tr.tr_bits tr.tr_pages.(i) '\000'
    done;
    tr.tr_count <- 0

let fresh_state (img : image) =
  let st =
    {
      gpr = make_regfile 16;
      simd = make_regfile 128; (* 16 registers x 8 lanes (ZMM width) *)
      zf = false;
      sf = false;
      cf = false;
      off = false;
      mem = Bytes.make img.mem_size '\000';
      ip = img.entry_ip;
      cycles = { fv = 0.0 };
      steps = 0;
      out_rev = [];
      track = None;
    }
  in
  (* Stack grows down from the top of memory; push the sentinel return
     address so that [ret] from the entry function halts cleanly. *)
  let sp = img.mem_size - 16 in
  Bytes.set_int64_le st.mem sp (Int64.of_int img.halt_ip);
  st.gpr.{Reg.gpr_index Reg.RSP} <- Int64.of_int sp;
  st

(* Blit register files, flags, scalars — everything but memory — from
   [src] into [st].  The cheap half of resetting a pooled state. *)
let reset_regs ~from:(src : state) st =
  Bigarray.Array1.blit src.gpr st.gpr;
  Bigarray.Array1.blit src.simd st.simd;
  st.zf <- src.zf;
  st.sf <- src.sf;
  st.cf <- src.cf;
  st.off <- src.off;
  st.ip <- src.ip;
  st.cycles.fv <- src.cycles.fv;
  st.steps <- src.steps;
  st.out_rev <- src.out_rev

let output st = List.rev st.out_rev

(* ------------------------------------------------------------------ *)
(* Register / memory access helpers.                                   *)
(* ------------------------------------------------------------------ *)

let mask_of_size = function
  | Reg.B -> 0xFFL
  | Reg.W -> 0xFFFFL
  | Reg.D -> 0xFFFFFFFFL
  | Reg.Q -> -1L

let sign_extend v = function
  | Reg.B -> Int64.shift_right (Int64.shift_left v 56) 56
  | Reg.W -> Int64.shift_right (Int64.shift_left v 48) 48
  | Reg.D -> Int64.shift_right (Int64.shift_left v 32) 32
  | Reg.Q -> v

let read_gpr st r s =
  Int64.logand st.gpr.{Reg.gpr_index r} (mask_of_size s)
let effective_address st (m : Instr.mem) =
  let base =
    match m.base with Some r -> st.gpr.{Reg.gpr_index r} | None -> 0L
  in
  let index =
    match m.index with
    | Some r -> Int64.mul st.gpr.{Reg.gpr_index r} (Int64.of_int m.scale)
    | None -> 0L
  in
  Int64.add (Int64.add base index) (Int64.of_int m.disp)

let check_addr st addr bytes =
  let a = Int64.to_int addr in
  if
    Int64.compare addr 0L < 0
    || Int64.compare addr (Int64.of_int (Bytes.length st.mem)) >= 0
    || a + bytes > Bytes.length st.mem || a < 0
  then trap "memory access at 0x%Lx" addr
  else a

let read_mem st addr s =
  match s with
  | Reg.B -> Int64.of_int (Char.code (Bytes.get st.mem (check_addr st addr 1)))
  | Reg.W -> Int64.of_int (Bytes.get_uint16_le st.mem (check_addr st addr 2))
  | Reg.D ->
    Int64.logand
      (Int64.of_int32 (Bytes.get_int32_le st.mem (check_addr st addr 4)))
      0xFFFFFFFFL
  | Reg.Q -> Bytes.get_int64_le st.mem (check_addr st addr 8)

(* A write of [n] bytes at [a] dirties at most two pages. *)
let mark_dirty st a n =
  match st.track with
  | None -> ()
  | Some tr ->
    let p0 = a lsr page_bits in
    mark_page tr p0;
    let p1 = (a + n - 1) lsr page_bits in
    if p1 <> p0 then mark_page tr p1

let write_mem st addr s v =
  match s with
  | Reg.B ->
    let a = check_addr st addr 1 in
    mark_dirty st a 1;
    Bytes.set st.mem a (Char.chr (Int64.to_int (Int64.logand v 0xFFL)))
  | Reg.W ->
    let a = check_addr st addr 2 in
    mark_dirty st a 2;
    Bytes.set_uint16_le st.mem a (Int64.to_int (Int64.logand v 0xFFFFL))
  | Reg.D ->
    let a = check_addr st addr 4 in
    mark_dirty st a 4;
    Bytes.set_int32_le st.mem a (Int64.to_int32 v)
  | Reg.Q ->
    let a = check_addr st addr 8 in
    mark_dirty st a 8;
    Bytes.set_int64_le st.mem a v

(* ------------------------------------------------------------------ *)
(* Flags.                                                              *)
(* ------------------------------------------------------------------ *)

let set_flags_logic st s res =
  let res = Int64.logand res (mask_of_size s) in
  st.zf <- Int64.equal res 0L;
  st.sf <- Int64.compare (sign_extend res s) 0L < 0;
  st.cf <- false;
  st.off <- false

let sign_bit v s = Int64.compare (sign_extend v s) 0L < 0

let set_flags_add st s a b res =
  let m = mask_of_size s in
  let a = Int64.logand a m and b = Int64.logand b m in
  let res = Int64.logand res m in
  st.zf <- Int64.equal res 0L;
  st.sf <- sign_bit res s;
  (* carry: unsigned result wrapped *)
  st.cf <- Int64.unsigned_compare res a < 0 || (Int64.unsigned_compare res b < 0);
  st.off <- sign_bit a s = sign_bit b s && sign_bit res s <> sign_bit a s

let set_flags_sub st s a b res =
  let m = mask_of_size s in
  let a = Int64.logand a m and b = Int64.logand b m in
  let res = Int64.logand res m in
  st.zf <- Int64.equal res 0L;
  st.sf <- sign_bit res s;
  st.cf <- Int64.unsigned_compare a b < 0;
  st.off <- sign_bit a s <> sign_bit b s && sign_bit res s <> sign_bit a s

(* ------------------------------------------------------------------ *)
(* Stack helpers.                                                      *)
(* ------------------------------------------------------------------ *)

let rsp_i = Reg.gpr_index Reg.RSP

let push st v =
  let sp = Int64.sub st.gpr.{rsp_i} 8L in
  st.gpr.{rsp_i} <- sp;
  write_mem st sp Reg.Q v

let pop st =
  let sp = st.gpr.{rsp_i} in
  let v = read_mem st sp Reg.Q in
  st.gpr.{rsp_i} <- Int64.add sp 8L;
  v

(* ------------------------------------------------------------------ *)
(* SIMD lanes.                                                         *)
(* ------------------------------------------------------------------ *)

let simd_lane st x lane = st.simd.{(x * 8) + lane}

let set_simd_lane st x lane v = st.simd.{(x * 8) + lane} <- v

(* ------------------------------------------------------------------ *)
(* Fault-injection mutators: flip one bit of a written destination.    *)
(* ------------------------------------------------------------------ *)

let flip_gpr st r s ~bit =
  let bit = bit mod Reg.size_bits s in
  let i = Reg.gpr_index r in
  st.gpr.{i} <- Int64.logxor st.gpr.{i} (Int64.shift_left 1L bit)

let flip_simd_lane st x ~lane ~bit =
  let bit = bit land 63 in
  let i = (x * 8) + lane in
  st.simd.{i} <- Int64.logxor st.simd.{i} (Int64.shift_left 1L bit)

let flip_flag st = function
  | Cond.ZF -> st.zf <- not st.zf
  | Cond.SF -> st.sf <- not st.sf
  | Cond.CF -> st.cf <- not st.cf
  | Cond.OF -> st.off <- not st.off

(* Step budget of a run when the caller gives none. *)
let default_fuel = 50_000_000
