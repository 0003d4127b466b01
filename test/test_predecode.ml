(* Tests for the pre-decoded threaded dispatcher against the reference
   interpreter ([test/oracle]): a differential property over random
   straight-line programs (with and without a mid-run bit flip) for
   every dispatch loop, decode round-trip identity (final state,
   retirement stream, single-stepping), superinstruction fusion
   boundary cases (join targets, avoid masks, fuel running out
   mid-pair, resuming at a pair's second half), the dispatch counters,
   and an oracle replay of every injection engine's campaign records. *)

open Ferrum_asm
module Machine = Ferrum_machine.Machine
module Predecode = Ferrum_machine.Predecode
module Ref_machine = Ferrum_oracle.Ref_machine
module F = Ferrum_faultsim.Faultsim
module Json = Ferrum_telemetry.Json
module Pipeline = Ferrum_eddi.Pipeline
module Technique = Ferrum_eddi.Technique
module Catalog = Ferrum_workloads.Catalog

let original = Instr.original

(* A loop fixture: flag-setting ALU traffic, a conditional back edge
   (so cmp+jcc fuses on a loop-carried pair), memory stores and a
   print.  Small enough to single-step exhaustively. *)
let loop_program () =
  Prog.program
    [ Prog.func "main"
        [ Prog.block "main"
            [ original (Instr.Mov (Reg.Q, Instr.Imm 0L, Instr.Reg Reg.RAX));
              original (Instr.Mov (Reg.Q, Instr.Imm 0L, Instr.Reg Reg.RCX)) ];
          Prog.block "loop"
            [ original
                (Instr.Alu
                   (Instr.Add, Reg.Q, Instr.Reg Reg.RCX, Instr.Reg Reg.RAX));
              original
                (Instr.Mov
                   ( Reg.Q, Instr.Reg Reg.RAX,
                     Instr.Mem (Instr.mem ~index:Reg.RCX ~scale:8 3600) ));
              original
                (Instr.Alu (Instr.Add, Reg.Q, Instr.Imm 1L, Instr.Reg Reg.RCX));
              original (Instr.Cmp (Reg.Q, Instr.Imm 50L, Instr.Reg Reg.RCX));
              original (Instr.Jcc (Cond.NE, "loop")) ];
          Prog.block "done"
            [ original
                (Instr.Mov (Reg.Q, Instr.Reg Reg.RAX, Instr.Reg Reg.RDI));
              original (Instr.Call "print_i64");
              original Instr.Ret ] ] ]

(* ---- helpers ---- *)

let check_state_eq name (want : Machine.state) (got : Machine.state) =
  match Ref_machine.diff_state want got with
  | Some d -> Alcotest.failf "%s: %s" name d
  | None -> ()

let run_ref ?fuel img =
  let st = Machine.fresh_state img in
  let o = Ref_machine.run ?fuel img st in
  (o, st)

let run_fast ?fuel img =
  let d = Predecode.decode img in
  let st = Machine.fresh_state img in
  let o = Predecode.exec ?fuel d st in
  (o, st)

(* Outcomes must agree exactly, trap messages included. *)
let check_outcome name want got =
  if want <> got then
    Alcotest.failf "%s: outcome %a (reference) vs %a" name Machine.pp_outcome
      want Machine.pp_outcome got

let check_run_eq name ?fuel img =
  let o1, st1 = run_ref ?fuel img in
  let o2, st2 = run_fast ?fuel img in
  check_outcome name o1 o2;
  check_state_eq name st1 st2

(* ---- decode round-trip: full-run identity ---- *)

let test_fixture_roundtrip () =
  check_run_eq "loop fixture" (Machine.load (loop_program ()))

let test_catalogue_roundtrip () =
  List.iter
    (fun (e : Catalog.entry) ->
      List.iter
        (fun t ->
          let res = Pipeline.protect t (e.Catalog.build ()) in
          let img = Machine.load res.Pipeline.program in
          check_run_eq
            (Printf.sprintf "%s/%s" e.Catalog.name (Technique.short_name t))
            img)
        Technique.all)
    Catalog.all

(* ---- observed path: same retirement stream as the reference ---- *)

let test_observed_stream_identity () =
  let img = Machine.load (loop_program ()) in
  let d = Predecode.decode img in
  let observe st0 =
    let seen = ref [] in
    let on_step (st : Machine.state) idx =
      seen := (idx, st.Machine.steps, st.Machine.cycles.Machine.fv) :: !seen
    in
    (on_step, st0, seen)
  in
  let on1, st1, seen1 = observe (Machine.fresh_state img) in
  let o1 = Ref_machine.run ~on_step:on1 img st1 in
  let on2, st2, seen2 = observe (Machine.fresh_state img) in
  let o2 = Predecode.exec_observed ~on_step:on2 d st2 in
  check_outcome "observed" o1 o2;
  Alcotest.(check int) "stream length" (List.length !seen1)
    (List.length !seen2);
  List.iter2
    (fun (i1, s1, c1) (i2, s2, c2) ->
      Alcotest.(check int) "retired idx" i1 i2;
      Alcotest.(check int) "steps at retire" s1 s2;
      Alcotest.(check (float 0.)) "cycles at retire" c1 c2)
    !seen1 !seen2;
  check_state_eq "observed final" st1 st2

(* ---- step1: lockstep single-stepping against the reference ---- *)

let test_step1_lockstep () =
  let img = Machine.load (loop_program ()) in
  let d = Predecode.decode img in
  let st1 = Machine.fresh_state img and st2 = Machine.fresh_state img in
  let halted = ref false in
  while not !halted do
    let r1 =
      try `Idx (Ref_machine.step img st1) with Machine.Halt o -> `Halt o
    in
    let r2 = try `Idx (Predecode.step1 d st2) with Machine.Halt o -> `Halt o in
    (match (r1, r2) with
    | `Idx i1, `Idx i2 -> Alcotest.(check int) "retired idx" i1 i2
    | `Halt o1, `Halt o2 ->
      check_outcome "halt" o1 o2;
      halted := true
    | _ -> Alcotest.fail "dispatchers halted at different steps");
    Alcotest.(check int) "lockstep ip" st1.Machine.ip st2.Machine.ip;
    Alcotest.(check (float 0.)) "lockstep cycles" st1.Machine.cycles.Machine.fv
      st2.Machine.cycles.Machine.fv
  done;
  check_state_eq "step1 final" st1 st2

(* ---- fusion boundary cases ---- *)

(* A branch target is a join point, so the boundary just before it must
   not fuse: jumping to the target would otherwise land in the middle
   of a pair. *)
let test_join_target_unfused () =
  let img = Machine.load (loop_program ()) in
  let d = Predecode.decode img in
  Alcotest.(check bool) "some pairs fused" true (Predecode.fused_pairs d > 0);
  let checked = ref 0 in
  Array.iteri
    (fun _ link ->
      match link with
      | Machine.L_target t | Machine.L_call t ->
        if t > 0 && t < Predecode.length d then begin
          incr checked;
          Alcotest.(check string)
            (Printf.sprintf "boundary into join %d unfused" t)
            ""
            (Predecode.fused_name d (t - 1))
        end
      | _ -> ())
    img.Machine.links;
  Alcotest.(check bool) "fixture has join targets" true (!checked > 0);
  (* The loop's flag-setting compare pairs with its conditional branch. *)
  let cmp_jcc =
    List.exists
      (fun (n, c) -> n = "cmp+jcc" && c > 0)
      (Predecode.pattern_counts d)
  in
  Alcotest.(check bool) "cmp+jcc fused in loop" true cmp_jcc

(* [decode ~avoid] masks fusion at the flagged indices; an all-true
   mask is the fully unfused dispatcher and must still be identical. *)
let test_avoid_mask_unfuses () =
  let img = Machine.load (loop_program ()) in
  let avoid = Array.make (Array.length img.Machine.code) true in
  let d = Predecode.decode ~avoid img in
  Alcotest.(check int) "no pairs under full avoid mask" 0
    (Predecode.fused_pairs d);
  let o1, st1 = run_ref img in
  let st2 = Machine.fresh_state img in
  let o2 = Predecode.exec d st2 in
  check_outcome "avoid mask" o1 o2;
  check_state_eq "avoid mask" st1 st2

(* Fuel that lands mid-pair must time out at exactly the reference step
   count: the fused thunk checks fuel between its halves. *)
let test_fuel_mid_pair () =
  let img = Machine.load (loop_program ()) in
  for fuel = 40 to 60 do
    let o1, st1 = run_ref ~fuel img in
    let o2, st2 = run_fast ~fuel img in
    check_outcome (Printf.sprintf "fuel=%d" fuel) o1 o2;
    Alcotest.(check bool)
      (Printf.sprintf "fuel=%d timed out" fuel)
      true
      (o1 = Machine.Timeout);
    check_state_eq (Printf.sprintf "fuel=%d" fuel) st1 st2
  done

(* Resuming [exec] from a state parked mid-stream — including at the
   second half of a fused pair, which is how the injection engines
   resume after a prefix replay — must match the reference from that
   point. *)
let test_resume_mid_pair () =
  let img = Machine.load (loop_program ()) in
  let d = Predecode.decode img in
  for k = 1 to 9 do
    let st1 = Machine.fresh_state img in
    for _ = 1 to k do
      ignore (Ref_machine.step img st1)
    done;
    let o1 = Ref_machine.run img st1 in
    let st2 = Machine.fresh_state img in
    for _ = 1 to k do
      ignore (Predecode.step1 d st2)
    done;
    let o2 = Predecode.exec d st2 in
    check_outcome (Printf.sprintf "resume after %d steps" k) o1 o2;
    check_state_eq (Printf.sprintf "resume k=%d" k) st1 st2
  done

(* ---- counters ---- *)

(* The fused-step count belongs to its decode: it counts on over runs,
   and a run on another decode of the same image leaves it alone. *)
let test_counters_and_cache () =
  let img = Machine.load (loop_program ()) in
  let d = Predecode.decode img in
  Alcotest.(check int) "fresh decode" 0 (Predecode.fused_steps d);
  let st = Machine.fresh_state img in
  ignore (Predecode.exec d st);
  let fused = Predecode.fused_steps d in
  Alcotest.(check bool) "fused_steps even" true (fused mod 2 = 0);
  Alcotest.(check bool) "fused within the run" true
    (fused > 0 && fused <= st.Machine.steps);
  let other = Predecode.decode img in
  ignore (Predecode.exec other (Machine.fresh_state img));
  Alcotest.(check int) "another decode's run" fused (Predecode.fused_steps d);
  Alcotest.(check int) "that decode's own count" fused
    (Predecode.fused_steps other);
  ignore (Predecode.exec d (Machine.fresh_state img));
  Alcotest.(check int) "a second run counts on" (2 * fused)
    (Predecode.fused_steps d)

(* ---- allocation: the specialized thunks never box ---- *)

(* An endless loop made only of [fast_thunk] shapes: every guarded
   memory arm (the byte moves and compares included), then each
   flattened pair at an even offset from the loop head, so the fused
   dispatch chain runs it, and a standalone branch to the detector
   after a branch, so no pair covers it.  The detector branches are
   never taken. *)
let fast_loop_program () =
  let m d = Instr.Mem (Instr.mem ~base:Reg.RBX d) in
  let detect = Prog.exit_function_label in
  Prog.program
    [ Prog.func "main"
        [ Prog.block "main"
            (List.map original
               [ Instr.Mov (Reg.Q, Instr.Imm 4096L, Instr.Reg Reg.RBX);
                 Instr.Mov (Reg.Q, Instr.Imm 0L, Instr.Reg Reg.RCX) ]);
          Prog.block "loop"
            (List.map original
               [ Instr.Mov (Reg.Q, Instr.Imm 7L, m 8);
                 Instr.Mov (Reg.Q, Instr.Reg Reg.RCX, m 16);
                 Instr.Mov (Reg.Q, m 16, Instr.Reg Reg.RAX);
                 Instr.Cmp (Reg.Q, m 8, Instr.Reg Reg.RAX);
                 Instr.Movslq (m 16, Reg.RDX);
                 Instr.MovQ_to_xmm (m 8, 1);
                 Instr.Pinsrq (1, Instr.Psrc_mem (Instr.mem ~base:Reg.RBX 16), 1);
                 Instr.Alu (Instr.Add, Reg.Q, Instr.Imm 1L, Instr.Reg Reg.RCX);
                 Instr.Vpxor (1, 1, 2);
                 Instr.Vptest (2, 2);
                 Instr.Vptest (2, 2);
                 Instr.Jcc (Cond.NE, "never");
                 Instr.Mov (Reg.B, Instr.Imm 5L, m 24);
                 Instr.Mov (Reg.B, Instr.Reg Reg.RCX, m 25);
                 Instr.Mov (Reg.B, m 24, Instr.Reg Reg.RAX);
                 Instr.Cmp (Reg.B, Instr.Reg Reg.RCX, Instr.Reg Reg.RAX);
                 Instr.Cmp (Reg.B, Instr.Imm 5L, Instr.Reg Reg.RAX);
                 Instr.Jcc (Cond.NE, "never");
                 Instr.Cmp (Reg.B, Instr.Imm 5L, m 24);
                 Instr.Jcc (Cond.NE, detect);
                 Instr.Vptest (2, 2);
                 Instr.Jcc (Cond.NE, detect);
                 Instr.Cmp (Reg.Q, Instr.Reg Reg.RCX, Instr.Reg Reg.RCX);
                 Instr.Jcc (Cond.NE, detect);
                 Instr.Jcc (Cond.NE, detect);
                 Instr.Cmp (Reg.Q, Instr.Imm 0L, Instr.Reg Reg.RCX);
                 Instr.Jcc (Cond.NE, "loop") ]);
          Prog.block "never" [ original Instr.Ret ] ] ]

(* Minor words allocated by an [exec] of [fuel] steps of [p] on a
   fresh, write-tracked state. *)
let exec_minor_words img p fuel =
  let st = Machine.fresh_state img in
  Machine.track_writes st;
  let before = Gc.minor_words () in
  let o = Predecode.exec ~fuel p st in
  let words = Gc.minor_words () -. before in
  check_outcome "fast loop" Machine.Timeout o;
  Alcotest.(check int) "ran to fuel" fuel st.Machine.steps;
  words

(* A rule that stops inlining boxes its int64 arguments on every step;
   the words one run allocates must not grow with its step count. *)
let test_fast_shapes_allocation_free () =
  let img = Machine.load (fast_loop_program ()) in
  let d = Predecode.decode img in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " pair in fixture") true
        (List.exists (fun (n, c) -> n = name && c > 0)
           (Predecode.pattern_counts d)))
    [ "cmp+jcc"; "pair" ];
  let short = exec_minor_words img (Predecode.decode img) 10_000 in
  let long = exec_minor_words img d 1_000_000 in
  Alcotest.(check bool) "most steps fused" true
    (Predecode.fused_steps d > 1_000_000 * 9 / 10);
  if long -. short > 64. then
    Alcotest.failf "%.0f minor words at 10^4 steps, %.0f at 10^6" short long

(* Every catalogue build's golden run through [exec]: every shape the
   catalogue retires has a specialized thunk (calls, returns, push, pop,
   cqto and idiv included), so what a run allocates is its fixed cost
   (the halt, the output list), well under this bound per step. *)
let catalogue_words_per_step = 0.01

let test_catalogue_allocation () =
  let builds (e : Catalog.entry) =
    ("raw", Pipeline.raw (e.Catalog.build ()))
    :: List.map
         (fun t ->
           (Technique.short_name t, Pipeline.protect t (e.Catalog.build ())))
         Technique.all
  in
  let over =
    List.concat_map
      (fun (e : Catalog.entry) ->
        List.filter_map
          (fun (cfg, res) ->
            let name = Printf.sprintf "%s/%s" e.Catalog.name cfg in
            let img = Machine.load res.Pipeline.program in
            let p = Predecode.decode img in
            let st = Machine.fresh_state img in
            Machine.track_writes st;
            let before = Gc.minor_words () in
            let o = Predecode.exec p st in
            let words = Gc.minor_words () -. before in
            (match o with
            | Machine.Exit _ -> ()
            | o -> Alcotest.failf "%s: %a" name Machine.pp_outcome o);
            let per_step = words /. float_of_int st.Machine.steps in
            if per_step > catalogue_words_per_step then
              Some (Printf.sprintf "%s %.3f" name per_step)
            else None)
          (builds e))
      Catalog.all
  in
  if over <> [] then
    Alcotest.failf "minor words per golden step above %.2f: %s"
      catalogue_words_per_step (String.concat ", " over)

(* The three loops over the same window of a golden run — the first
   [window] steps of every kNN build (calls, returns, pushes, pops and,
   protected, the dup/check traffic) — allocate the same: a step never
   boxes its cycle count, observed or single-stepped. *)
let test_loops_allocate_alike () =
  let window = 20_000 in
  let words img run =
    let p = Predecode.decode img in
    let st = Machine.fresh_state img in
    Machine.track_writes st;
    let before = Gc.minor_words () in
    run p st;
    let words = Gc.minor_words () -. before in
    Alcotest.(check int) "ran the window" window st.Machine.steps;
    words
  in
  let nothing (_ : Machine.state) (_ : int) = () in
  let e = List.find (fun e -> e.Catalog.name = "kNN") Catalog.all in
  List.iter
    (fun (cfg, res) ->
      let img = Machine.load res.Pipeline.program in
      let exec =
        words img (fun p st ->
            check_outcome "exec" Machine.Timeout
              (Predecode.exec ~fuel:window p st))
      in
      let observed =
        words img (fun p st ->
            check_outcome "exec_observed" Machine.Timeout
              (Predecode.exec_observed ~fuel:window ~on_step:nothing p st))
      in
      let stepped =
        words img (fun p st ->
            while st.Machine.steps < window do
              ignore (Predecode.step1 p st : int)
            done)
      in
      if observed > exec || stepped > exec then
        Alcotest.failf
          "%s: %.0f minor words through exec, %.0f observed, %.0f \
           single-stepped over %d steps"
          cfg exec observed stepped window)
    (("raw", Pipeline.raw (e.Catalog.build ()))
    :: List.map
         (fun t ->
           (Technique.short_name t, Pipeline.protect t (e.Catalog.build ())))
         Technique.all)

(* ---- differential property: random straight-line programs ---- *)

(* Memory large enough that [Tgen.mem]'s base + index * scale sums of
   in-range seeds stay inside it, small enough to compare cheaply. *)
let diff_mem = 1 lsl 18

let diff_fuel = 500

(* Register seeds: data addresses, addresses within 8 bytes of the end
   of memory (so 2-, 4- and 8-byte accesses straddle the bound that
   [Predecode]'s [guard] and [Machine.check_addr] test), small counts,
   values next to the signed and unsigned wrap points (where carry and
   overflow flip), and raw values. *)
let seed_value =
  QCheck.Gen.(
    frequency
      [ (6, map Int64.of_int (int_range 512 16384));
        (1, map (fun k -> Int64.of_int (diff_mem - k)) (int_range 1 8));
        (2, map Int64.of_int (int_range (-64) 64));
        ( 2,
          map2 Int64.add
            (oneofl [ Int64.min_int; Int64.max_int; 0L ])
            (map Int64.of_int (int_range (-3) 3)) );
        (1, ui64) ])

(* The register and immediate shapes [fast_thunk] specializes, with a
   flag reader: the 64-bit ones, and [cmpb] against a register whose
   low byte is first set next to the 8-bit rule's edges (0x7F/0x80
   flip SF and OF, 0x00/0xFF CF), from a register, an edge immediate or
   a wide one. *)
let hot_instr =
  let open QCheck.Gen in
  let* r = Tgen.operand_gpr and* d = Tgen.operand_gpr in
  let* v = seed_value and* op = Tgen.alu and* c = Tgen.cond in
  let* src = oneofl [ Instr.Reg r; Instr.Imm v ] in
  let* edge = oneofl [ 0x00L; 0x01L; 0x7FL; 0x80L; 0x81L; 0xFEL; 0xFFL ] in
  let* src8 = oneofl [ Instr.Reg r; Instr.Imm v; Instr.Imm edge ] in
  oneofl
    [ [ Instr.Alu (op, Reg.Q, src, Instr.Reg d) ];
      [ Instr.Cmp (Reg.Q, src, Instr.Reg d) ];
      [ Instr.Test (Reg.Q, src, Instr.Reg d) ];
      [ Instr.Mov (Reg.Q, src, Instr.Reg d) ];
      [ Instr.Set (c, Instr.Reg d) ];
      [ Instr.Mov (Reg.B, Instr.Imm edge, Instr.Reg d);
        Instr.Cmp (Reg.B, src8, Instr.Reg d) ] ]

(* Memory operands at the end of memory: an absolute address in its
   last 16 bytes, or a few bytes off a (possibly near-end) seeded base,
   so 1-, 2-, 4- and 8-byte accesses land on both sides of the bound. *)
let edge_mem =
  let open QCheck.Gen in
  oneof
    [ map (fun k -> Instr.mem (diff_mem - k)) (int_range 1 16);
      map2 (fun base disp -> Instr.mem ~base disp) Tgen.operand_gpr
        (int_range (-8) 8) ]

(* The list includes every memory shape [fast_thunk] guards: 64-bit
   loads and stores (register and immediate source), byte loads and
   stores ([s] = [Reg.B]) and [movb $imm, mem], [cmpq mem, reg],
   [cmpb reg, mem] and [cmpb $imm, mem], [movslq], [movq] to XMM and
   [pinsrq]. *)
let edge_instr =
  let open QCheck.Gen in
  let* s = Tgen.size and* r = Tgen.operand_gpr and* x = int_range 0 15 in
  let* m = edge_mem in
  let* op = Tgen.alu and* lane = int_range 0 1 and* v = seed_value in
  oneofl
    [ Instr.Mov (s, Instr.Reg r, Instr.Mem m);
      Instr.Mov (s, Instr.Mem m, Instr.Reg r);
      Instr.Mov (Reg.Q, Instr.Imm v, Instr.Mem m);
      Instr.Mov (Reg.B, Instr.Imm v, Instr.Mem m);
      Instr.Alu (op, s, Instr.Mem m, Instr.Reg r);
      Instr.Cmp (s, Instr.Reg r, Instr.Mem m);
      Instr.Cmp (Reg.B, Instr.Imm v, Instr.Mem m);
      Instr.Cmp (Reg.Q, Instr.Mem m, Instr.Reg r);
      Instr.Movslq (Instr.Mem m, r);
      Instr.MovQ_to_xmm (Instr.Mem m, x);
      Instr.Pinsrq (lane, Instr.Psrc_mem m, x) ]

(* The pairs [fuse_pair] flattens, as adjacent instructions:
   vpxor;vptest, vptest;jcc, cmpq reg/imm;jcc and cmpb reg/imm against
   a register or an end-of-memory byte;jcc, the branches to a forward
   target in [targets] (which links as a jump or, for
   [Prog.exit_function_label], as the branch to the detector), and the
   cmpq and vptest pairs also with that detector branch explicitly. *)
let fused_pair targets =
  let open QCheck.Gen in
  let* a = int_range 0 15 and* d = int_range 0 15 in
  let* b = oneof [ return a; int_range 0 15 ] in
  let* e = oneof [ return d; int_range 0 15 ] in
  let* c = Tgen.cond and* l = oneofl targets in
  let* r = Tgen.operand_gpr and* v = seed_value in
  let* src = oneofl [ Instr.Reg r; Instr.Imm v ] and* dst = Tgen.operand_gpr in
  let* dst8 =
    oneof [ return (Instr.Reg dst); map (fun m -> Instr.Mem m) edge_mem ]
  in
  let detect = Prog.exit_function_label in
  oneofl
    [ [ Instr.Vpxor (a, b, d); Instr.Vptest (d, e) ];
      [ Instr.Vptest (d, e); Instr.Jcc (c, l) ];
      [ Instr.Cmp (Reg.Q, src, Instr.Reg dst); Instr.Jcc (c, l) ];
      [ Instr.Vptest (d, e); Instr.Jcc (c, detect) ];
      [ Instr.Cmp (Reg.Q, src, Instr.Reg dst); Instr.Jcc (c, detect) ];
      [ Instr.Cmp (Reg.B, src, dst8); Instr.Jcc (c, l) ] ]

(* Shapes [Tgen.instr] leaves out: test, division, the 512-bit checks,
   prints and forward control transfers to [targets]. *)
let extra_instr targets =
  let open QCheck.Gen in
  let* s = Tgen.size and* src = Tgen.operand and* dst = Tgen.reg_or_mem in
  let* a = int_range 0 15 and* b = int_range 0 15 and* d = int_range 0 15 in
  let* half = int_range 0 1 and* c = Tgen.cond and* l = oneofl targets in
  oneofl
    [ Instr.Test (s, src, dst); Instr.Idiv (s, src);
      Instr.Vinserti64x4 (half, a, b, d); Instr.Vpxorq512 (a, b, d);
      Instr.Vptestmq512 (a, b); Instr.Call Prog.builtin_print;
      Instr.Jcc (c, l); Instr.Jmp l ]

(* The stack and division arms at their edges: a return to a pushed
   address (in range, the halt sentinel's neighbourhood or wild), a
   push/pop round trip, a call into [callee], an idiv after cqto (a zero
   divisor register traps), the [min_int / -1] quotient, and an idiv
   whose RDX was overwritten since its cqto (a corrupted RDX: the
   divide-overflow trap). *)
let stack_div_seq =
  let open QCheck.Gen in
  let* r = Tgen.operand_gpr and* d = Tgen.operand_gpr and* v = seed_value in
  let* ra =
    oneof [ map Int64.of_int (int_range (-2) 80); seed_value ]
  in
  let* src = oneofl [ Instr.Reg r; Instr.Imm v; Instr.Imm 0L ] in
  let rax = Instr.Reg Reg.RAX and rcx = Instr.Reg Reg.RCX in
  oneofl
    [ [ Instr.Push (Instr.Imm ra); Instr.Ret ];
      [ Instr.Push (Instr.Reg r); Instr.Ret ];
      [ Instr.Push (Instr.Reg r); Instr.Pop d ];
      [ Instr.Push (Instr.Imm v); Instr.Pop d ];
      [ Instr.Call "callee" ];
      [ Instr.Cqto; Instr.Idiv (Reg.Q, src) ];
      [ Instr.Mov (Reg.Q, Instr.Imm Int64.min_int, rax); Instr.Cqto;
        Instr.Mov (Reg.Q, Instr.Imm (-1L), rcx); Instr.Idiv (Reg.Q, rcx) ];
      [ Instr.Cqto; Instr.Mov (Reg.Q, Instr.Imm v, Instr.Reg Reg.RDX);
        Instr.Idiv (Reg.Q, src) ] ]

let diff_program : Prog.t QCheck.Gen.t =
  let open QCheck.Gen in
  let seed r =
    map (fun v -> Instr.Mov (Reg.Q, Instr.Imm v, Instr.Reg r)) seed_value
  in
  let* seeds =
    flatten_l
      (List.map seed
         Reg.[ RAX; RBX; RCX; RDX; RSI; RDI; R8; R9; R10; R11; R12; R13; R14;
               R15 ])
  in
  let* simd_seeds =
    list_size (int_range 0 6)
      (let* lane = int_range 0 1 and* r = Tgen.operand_gpr in
       let* x = int_range 0 15 in
       return (Instr.Pinsrq (lane, Instr.Psrc_reg r, x)))
  in
  let* n_blocks = int_range 1 3 in
  let label i = if i = 0 then "main" else Printf.sprintf "b%d" i in
  let block i =
    let targets =
      List.init (n_blocks - i - 1) (fun j -> label (i + j + 1))
      @ [ "done"; Prog.exit_function_label ]
    in
    let one g = map (fun op -> [ op ]) g in
    map List.concat
      (list_size (int_range 0 14)
         (let* ops =
            frequency
              [ (6, one Tgen.instr); (3, hot_instr); (2, one edge_instr);
                (1, one (extra_instr targets)); (1, fused_pair targets);
                (1, stack_div_seq) ]
          in
          let* prov = oneofl [ Instr.original; Instr.dup; Instr.check ] in
          return (List.map prov ops)))
  in
  let* bodies = flatten_l (List.init n_blocks block) in
  let* callee = list_size (int_range 0 4) Tgen.instr in
  let bodies =
    match bodies with
    | b0 :: rest -> (List.map Instr.original (seeds @ simd_seeds) @ b0) :: rest
    | [] -> []
  in
  return
    (Prog.program
       [ Prog.func "main"
           (List.mapi (fun i b -> Prog.block (label i) b) bodies
           @ [ Prog.block "done"
                 (List.map Instr.original
                    [ Instr.Call Prog.builtin_print; Instr.Ret ]) ]);
         Prog.func "callee"
           [ Prog.block "callee"
               (List.map Instr.original (callee @ [ Instr.Ret ])) ] ])

(* A bit flipped into the state right after a given retired step. *)
type flip =
  | Fl_gpr of Reg.gpr * int
  | Fl_simd of int * int * int (* register, lane, bit *)
  | Fl_flag of Cond.flag

let flip_gen =
  QCheck.Gen.(
    oneof
      [ map2 (fun r b -> Fl_gpr (r, b)) Tgen.gpr (int_range 0 63);
        map3 (fun x l b -> Fl_simd (x, l, b)) (int_range 0 15) (int_range 0 7)
          (int_range 0 63);
        map (fun f -> Fl_flag f) (oneofl Cond.[ ZF; SF; CF; OF ]) ])

let apply_flip st = function
  | Fl_gpr (r, bit) -> Machine.flip_gpr st r Reg.Q ~bit
  | Fl_simd (x, lane, bit) -> Machine.flip_simd_lane st x ~lane ~bit
  | Fl_flag f -> Machine.flip_flag st f

(* Runs to [fuel] with an optional [(k, f)]: flip [f] right after the
   k-th retired instruction. *)
let flip_after flip st =
  match flip with
  | Some (k, f) when st.Machine.steps = k -> apply_flip st f
  | _ -> ()

let reference ~fuel ~flip img st =
  Ref_machine.run ~fuel ~on_step:(fun st _ -> flip_after flip st) img st

(* The dispatch loops under test. *)
let loops =
  [ ( "exec",
      fun ~fuel ~flip img st ->
        let p = Predecode.decode img in
        match flip with
        | Some (k, f) when k <= fuel -> (
          match Predecode.exec ~fuel:k p st with
          | Machine.Timeout ->
            apply_flip st f;
            Predecode.exec ~fuel p st
          | o -> o)
        | _ -> Predecode.exec ~fuel p st );
    ( "exec_observed",
      fun ~fuel ~flip img st ->
        Predecode.exec_observed ~fuel
          ~on_step:(fun st _ -> flip_after flip st)
          (Predecode.decode img) st );
    ( "step1",
      fun ~fuel ~flip img st ->
        let p = Predecode.decode img in
        try
          while st.Machine.steps < fuel do
            let ip = st.Machine.ip in
            if ip < 0 || ip >= Predecode.length p then
              Machine.trap "control reached 0x%x" ip;
            ignore (Predecode.step1 p st);
            flip_after flip st
          done;
          Machine.Timeout
        with
        | Machine.Halt o -> o
        | Machine.Trap m -> Machine.Crash m ) ]

let run_on ~fuel ~flip img run =
  let st = Machine.fresh_state img in
  Machine.track_writes st;
  let o = run ~fuel ~flip img st in
  (o, st)

let disagreement (o1, st1) (o2, st2) =
  if o1 <> o2 then
    Some
      (Fmt.str "outcome %a vs %a" Machine.pp_outcome o1 Machine.pp_outcome o2)
  else Ref_machine.diff_state st1 st2

(* The first retired instruction after which [run] and the reference
   part ways: the smallest fuel at which their runs differ. *)
let first_divergence ~flip img run =
  let rec go m =
    let ref_run = run_on ~fuel:m ~flip img reference in
    match disagreement ref_run (run_on ~fuel:m ~flip img run) with
    | None -> if m >= diff_fuel then "no step-wise divergence" else go (m + 1)
    | Some d ->
      let _, before = run_on ~fuel:(m - 1) ~flip img reference in
      let ip = before.Machine.ip in
      let text =
        if ip >= 0 && ip < Array.length img.Machine.code then
          Printer.string_of_instr img.Machine.code.(ip).Instr.op
        else "<outside code>"
      in
      Printf.sprintf
        "first divergence at retired step %d, static index %d (%s): %s" m ip
        text d
  in
  go 1

let check_loops ?flip img =
  let want = run_on ~fuel:diff_fuel ~flip img reference in
  List.iter
    (fun (name, run) ->
      match disagreement want (run_on ~fuel:diff_fuel ~flip img run) with
      | None -> ()
      | Some d ->
        QCheck.Test.fail_reportf "%s: %s@.%s" name d
          (first_divergence ~flip img run))
    loops;
  true

let diff_arbitrary gen =
  QCheck.make
    ~print:(fun (p, _) -> Printer.program_to_string p)
    QCheck.Gen.(pair diff_program gen)

let load_diff p = Machine.load ~mem_size:diff_mem p

let prop_dispatchers_agree =
  QCheck.Test.make ~name:"every dispatch loop agrees with the reference"
    ~count:500 (diff_arbitrary QCheck.Gen.unit) (fun (p, ()) ->
      check_loops (load_diff p))

(* The flip lands after a step strictly before the fault-free run ends,
   so every loop is still running when it is applied. *)
let prop_flipped_dispatchers_agree =
  QCheck.Test.make ~name:"loops agree after a mid-run bit flip" ~count:500
    (diff_arbitrary QCheck.Gen.(pair nat flip_gen))
    (fun (p, (pick, f)) ->
      let img = load_diff p in
      let _, st = run_on ~fuel:diff_fuel ~flip:None img reference in
      let n = st.Machine.steps in
      n < 2 || check_loops ~flip:(1 + (pick mod (n - 1)), f) img)

(* ---- injection engines against the reference interpreter ---- *)

(* Re-run one campaign record on the reference interpreter, flipping
   the recorded destination bit right after the record's [dyn_index]-th
   eligible write-back.  Returns the classification, steps, cycles and
   the static index the flip landed on. *)
let replay (t : F.target) (r : F.record) =
  let st = Machine.fresh_state t.F.img in
  let seen = ref 0 and site = ref (-1) in
  let on_step st idx =
    if t.F.eligible.(idx) then begin
      if !seen = r.F.r_dyn_index then begin
        site := idx;
        match r.F.r_dest with
        | Some (F.Igpr (g, s)) -> Machine.flip_gpr st g s ~bit:r.F.r_bit
        | Some (F.Isimd (x, lane)) ->
          Machine.flip_simd_lane st x ~lane ~bit:r.F.r_bit
        | Some (F.Iflag f) -> Machine.flip_flag st f
        | None -> ()
      end;
      incr seen
    end
  in
  let cls =
    match Ref_machine.run ~fuel:t.F.fuel ~on_step t.F.img st with
    | Machine.Exit out -> if out = t.F.golden_output then F.Benign else F.Sdc
    | Machine.Detected -> F.Detected
    | Machine.Crash _ -> F.Crash
    | Machine.Timeout -> F.Timeout
  in
  (cls, st.Machine.steps, st.Machine.cycles.Machine.fv, !site)

(* Every engine's records — including those that ended early at a
   golden checkpoint — must be what the reference interpreter computes
   for the same fault. *)
let test_engines_across_dispatchers () =
  let kmeans () =
    match Catalog.find "kmeans" with
    | Some e -> e.Catalog.build ()
    | None -> assert false
  in
  let seed = 9L and samples = 20 in
  let converged = ref 0 in
  List.iter
    (fun (name, res) ->
      let img = Machine.load res.Pipeline.program in
      List.iter
        (fun engine ->
          let t = F.prepare ~engine img in
          for sample = 0 to samples - 1 do
            let _, _, r = F.campaign_sample t ~seed ~sample in
            let cls, steps, cycles, site = replay t r in
            let what =
              Printf.sprintf "%s %s sample %d" name (F.engine_name engine)
                sample
            in
            Alcotest.(check string) (what ^ " class")
              (F.classification_name cls)
              (F.classification_name r.F.r_class);
            Alcotest.(check int) (what ^ " steps") steps r.F.steps;
            Alcotest.(check int64) (what ^ " cycle bits")
              (Int64.bits_of_float cycles) (Int64.bits_of_float r.F.cycles);
            Alcotest.(check int) (what ^ " site") site r.F.r_static_index
          done;
          converged := !converged + (F.phases t).F.ph_converged)
        [ F.Scratch; F.Pooled; F.Checkpointed 64 ])
    [ ("kmeans/raw", Pipeline.raw (kmeans ()));
      ("kmeans/ferrum", Pipeline.protect Technique.Ferrum (kmeans ())) ];
  Alcotest.(check bool) "some records ended at a golden checkpoint" true
    (!converged > 0)

let () =
  Alcotest.run "predecode"
    [
      ( "differential",
        [ QCheck_alcotest.to_alcotest prop_dispatchers_agree;
          QCheck_alcotest.to_alcotest prop_flipped_dispatchers_agree ] );
      ( "roundtrip",
        [ Alcotest.test_case "loop fixture" `Quick test_fixture_roundtrip;
          Alcotest.test_case "observed stream" `Quick
            test_observed_stream_identity;
          Alcotest.test_case "step1 lockstep" `Quick test_step1_lockstep;
          Alcotest.test_case "catalogue x techniques" `Slow
            test_catalogue_roundtrip ] );
      ( "fusion",
        [ Alcotest.test_case "join targets unfused" `Quick
            test_join_target_unfused;
          Alcotest.test_case "avoid mask" `Quick test_avoid_mask_unfuses;
          Alcotest.test_case "fuel mid-pair" `Quick test_fuel_mid_pair;
          Alcotest.test_case "resume mid-pair" `Quick test_resume_mid_pair ] );
      ( "counters",
        [ Alcotest.test_case "counters and cache" `Quick
            test_counters_and_cache;
          Alcotest.test_case "fast shapes allocation-free" `Quick
            test_fast_shapes_allocation_free;
          Alcotest.test_case "catalogue golden runs allocation bound" `Slow
            test_catalogue_allocation;
          Alcotest.test_case "step1 and exec_observed allocate as exec" `Quick
            test_loops_allocate_alike ] );
      ( "engines",
        [ Alcotest.test_case "dispatcher-independent" `Slow
            test_engines_across_dispatchers ] );
    ]
