(* Tests for the lib/analysis layer: CFG construction over Prog
   functions (fall-through, jump edges, loops, diamonds, unreachable
   code) and the engine-based liveness that lib/core's wrapper now
   delegates to. *)

open Ferrum_asm
module Cfg = Ferrum_analysis.Cfg
module Liveness = Ferrum_analysis.Liveness
module I = Instr

let o op = I.original op
let movi r v = o (I.Mov (Reg.Q, I.Imm (Int64.of_int v), I.Reg r))
let add s d = o (I.Alu (I.Add, Reg.Q, I.Reg s, I.Reg d))
let cmp a b = o (I.Cmp (Reg.Q, I.Reg a, I.Reg b))
let jcc c l = o (I.Jcc (c, l))
let jmp l = o (I.Jmp l)
let store r d = o (I.Mov (Reg.Q, I.Reg r, I.Mem (I.mem ~base:Reg.RBP d)))
let ret = o I.Ret

let ids l = List.sort compare l

(* A diamond:
     head:  cmp; jl right_part  (fall into the left arm)
            movi rax            (left arm, falls through into join)
     join:  ret
     right: movi rbx; jmp join *)
let diamond () =
  Prog.func "main"
    [
      Prog.block "head"
        [ cmp Reg.RBX Reg.RAX; jcc Cond.L "right"; movi Reg.RAX 1 ];
      Prog.block "join" [ ret ];
      Prog.block "right" [ movi Reg.RBX 2; jmp "join" ];
    ]

let test_cfg_diamond () =
  let g = Cfg.build (diamond ()) in
  Alcotest.(check int) "four basic blocks" 4 (Array.length g.Cfg.blocks);
  (* block 0 = head up to the jcc, block 1 = the left arm, block 2 =
     join, block 3 = right *)
  Alcotest.(check (list int)) "branch splits head" [ 1; 3 ]
    (ids g.Cfg.blocks.(0).Cfg.succs);
  Alcotest.(check (list int)) "left arm falls into join" [ 2 ]
    g.Cfg.blocks.(1).Cfg.succs;
  Alcotest.(check (list int)) "join preds" [ 1; 3 ]
    (ids g.Cfg.blocks.(2).Cfg.preds);
  Alcotest.(check (list int)) "right jumps to join" [ 2 ]
    g.Cfg.blocks.(3).Cfg.succs

(* A loop with a back-edge and a checker-style side exit inside the
   textual body block (extended block gets split). *)
let loop () =
  Prog.func "main"
    [
      Prog.block "entry" [ movi Reg.RAX 0 ];
      Prog.block "body"
        [
          add Reg.RBX Reg.RAX;
          jcc Cond.NE Prog.exit_function_label;
          cmp Reg.RCX Reg.RAX;
          jcc Cond.L "body";
        ];
      Prog.block "done" [ ret ];
    ]

let test_cfg_loop () =
  let g = Cfg.build (loop ()) in
  Alcotest.(check int) "side exit splits the body" 4
    (Array.length g.Cfg.blocks);
  (* detector exits produce no edge *)
  Alcotest.(check (list int)) "exit_function edge dropped" [ 2 ]
    g.Cfg.blocks.(1).Cfg.succs;
  let header = Hashtbl.find g.Cfg.by_label "body" in
  Alcotest.(check (list int)) "back-edge to the loop header" [ header; 3 ]
    (ids g.Cfg.blocks.(2).Cfg.succs);
  let rpo = Cfg.reverse_postorder g in
  Alcotest.(check int) "rpo covers every block" (Array.length g.Cfg.blocks)
    (Array.length rpo);
  Alcotest.(check int) "rpo starts at the entry" 0 rpo.(0)

let test_cfg_unreachable () =
  let f =
    Prog.func "main"
      [
        Prog.block "entry" [ jmp "end" ];
        Prog.block "orphan" [ movi Reg.RAX 7; jmp "end" ];
        Prog.block "end" [ ret ];
      ]
  in
  let g = Cfg.build f in
  let orphan = Hashtbl.find g.Cfg.by_label "orphan" in
  Alcotest.(check (list int)) "orphan has no predecessor" []
    g.Cfg.blocks.(orphan).Cfg.preds;
  (* rpo still enumerates every block exactly once *)
  let rpo = Cfg.reverse_postorder g in
  Alcotest.(check (list int)) "rpo is a permutation"
    (List.init (Array.length g.Cfg.blocks) Fun.id)
    (ids (Array.to_list rpo))

let test_cfg_position () =
  let g = Cfg.build (loop ()) in
  (* block 2 is the second half of the textual "body" block *)
  let label, k = Cfg.position g 2 1 in
  Alcotest.(check string) "position label" "body" label;
  Alcotest.(check int) "position offset" 3 k

(* ---- liveness on the engine ---- *)

let test_liveness_basic () =
  let f =
    Prog.func "main"
      [
        Prog.block "entry"
          [ movi Reg.RAX 1; movi Reg.RBX 2; add Reg.RBX Reg.RAX;
            store Reg.RAX (-8); ret ];
      ]
  in
  let t = Liveness.analyze f in
  (* rbx is read by the add at k=2, so live before it... *)
  Alcotest.(check bool) "rbx live before its use" false
    (Liveness.dead_at t ~label:"entry" ~k:2 Reg.RBX);
  (* ...and dead after (killed by nothing, simply never read again) *)
  Alcotest.(check bool) "rbx dead after its last use" true
    (Liveness.dead_at t ~label:"entry" ~k:3 Reg.RBX);
  (* rax flows into the store, then ret reads it (return value) *)
  Alcotest.(check bool) "rax live before the store" false
    (Liveness.dead_at t ~label:"entry" ~k:3 Reg.RAX);
  (* r12 is never mentioned *)
  Alcotest.(check bool) "untouched reg dead" true
    (Liveness.dead_at t ~label:"entry" ~k:0 Reg.R12);
  (* unknown positions are conservatively live *)
  Alcotest.(check bool) "unknown position live" false
    (Liveness.dead_at t ~label:"nope" ~k:0 Reg.R12)

let test_liveness_loop () =
  let t = Liveness.analyze (loop ()) in
  (* rbx feeds the add every iteration: live on block entry of body *)
  Alcotest.(check bool) "loop-carried reg live at header" false
    (Liveness.dead_at t ~label:"body" ~k:0 Reg.RBX);
  Alcotest.(check bool) "loop-carried reg live at latch" false
    (Liveness.dead_at t ~label:"body" ~k:3 Reg.RBX)

let test_liveness_call_reads () =
  let f =
    Prog.func "main"
      [
        Prog.block "entry"
          [ movi Reg.R12 5; o (I.Call "helper"); movi Reg.RAX 0; ret ];
      ]
  in
  (* default: a call reads every GPR, so r12 is live just before it *)
  let t = Liveness.analyze f in
  Alcotest.(check bool) "conservative call keeps r12 live" false
    (Liveness.dead_at t ~label:"entry" ~k:1 Reg.R12);
  (* SysV view: r12 is not an argument register, hence dead *)
  let t' =
    Liveness.analyze
      ~call_reads:Reg.[ RDI; RSI; RDX; RCX; R8; R9; RAX; RSP; RBP ]
      f
  in
  Alcotest.(check bool) "sysv call leaves r12 dead" true
    (Liveness.dead_at t' ~label:"entry" ~k:1 Reg.R12)

let test_liveness_keep () =
  (* A dup occupies an index but must not kill under ~keep:Original:
     the original program's rcx (read by the store) stays live across
     the dup's write to it. *)
  let f =
    Prog.func "main"
      [
        Prog.block "entry"
          [
            movi Reg.RCX 1;
            I.dup (I.Mov (Reg.Q, I.Imm 9L, I.Reg Reg.RCX));
            store Reg.RCX (-8);
            ret;
          ];
      ]
  in
  let keep (i : I.ins) = i.I.prov = I.Original in
  let t = Liveness.analyze ~keep f in
  Alcotest.(check bool) "dup write does not kill" false
    (Liveness.dead_at t ~label:"entry" ~k:1 Reg.RCX);
  (* without ~keep the dup's full-width write kills rcx above it *)
  let t' = Liveness.analyze f in
  Alcotest.(check bool) "real write kills" true
    (Liveness.dead_at t' ~label:"entry" ~k:1 Reg.RCX)

(* FERRUM's requisition path queries [dead_at] at every (label, k) of
   the raw function: on real transform input each of those positions
   is known (an unknown one would make every register live), and a
   spare is dead there exactly when it is outside the live-in set. *)
let test_pass_queries_on_catalogue () =
  let m = (List.hd Ferrum_workloads.Catalog.all).Ferrum_workloads.Catalog.build () in
  let p = (Ferrum_eddi.Pipeline.raw m).Ferrum_eddi.Pipeline.program in
  List.iter
    (fun (f : Prog.func) ->
      let t = Liveness.analyze f in
      List.iter
        (fun (b : Prog.block) ->
          List.iteri
            (fun k _ ->
              match Liveness.live_in_at t ~label:b.Prog.label ~k with
              | None -> Alcotest.failf "%s:%d unknown" b.Prog.label k
              | Some live ->
                List.iter
                  (fun r ->
                    Alcotest.(check bool) "dead iff not live-in"
                      (not (Liveness.GSet.mem r live))
                      (Liveness.dead_at t ~label:b.Prog.label ~k r))
                  Ferrum_eddi.Spare.preference)
            b.Prog.insns)
        f.Prog.blocks)
    p.Prog.funcs

let () =
  Alcotest.run "analysis"
    [
      ( "cfg",
        [
          Alcotest.test_case "diamond" `Quick test_cfg_diamond;
          Alcotest.test_case "loop + side exit" `Quick test_cfg_loop;
          Alcotest.test_case "unreachable block" `Quick test_cfg_unreachable;
          Alcotest.test_case "source positions" `Quick test_cfg_position;
        ] );
      ( "liveness",
        [
          Alcotest.test_case "straight line" `Quick test_liveness_basic;
          Alcotest.test_case "loop-carried" `Quick test_liveness_loop;
          Alcotest.test_case "call_reads refinement" `Quick
            test_liveness_call_reads;
          Alcotest.test_case "keep refinement" `Quick test_liveness_keep;
          Alcotest.test_case "pass queries on catalogue" `Quick
            test_pass_queries_on_catalogue;
        ] );
    ]
