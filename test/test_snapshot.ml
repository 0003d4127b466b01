(* Tests for the checkpointed fault-injection engine: the machine's
   dirty-page write tracking, golden-run snapshot capture and
   incremental restore exactness, and — the load-bearing guarantee —
   bit-identity of the pooled and checkpointed engines against the
   scratch path for classifications, records, vulnerability maps and
   sharded campaign streams. *)

open Ferrum_asm
module Machine = Ferrum_machine.Machine
module Snapshot = Ferrum_machine.Snapshot
module Predecode = Ferrum_machine.Predecode
module F = Ferrum_faultsim.Faultsim
module Json = Ferrum_telemetry.Json
module Propagation = Ferrum_telemetry.Propagation
module Runner = Ferrum_campaign.Runner
module Pipeline = Ferrum_eddi.Pipeline
module Technique = Ferrum_eddi.Technique
module Catalog = Ferrum_workloads.Catalog
module Trace = Ferrum_telemetry.Trace
module Profile = Ferrum_telemetry.Profile
module Manifest = Ferrum_campaign.Manifest
module Fsutil = Ferrum_campaign.Fsutil

let original = Instr.original

(* A loop fixture with enough dynamic instructions (~1400) to span
   many checkpoints, and stores that walk across the page 0 / page 1
   boundary so restores must undo real memory dirt. *)
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
              original (Instr.Cmp (Reg.Q, Instr.Imm 200L, Instr.Reg Reg.RCX));
              original (Instr.Jcc (Cond.NE, "loop")) ];
          Prog.block "done"
            [ original
                (Instr.Mov
                   (Reg.Q, Instr.Mem (Instr.mem 4400), Instr.Reg Reg.RDI));
              original (Instr.Call "print_i64");
              original Instr.Ret ] ] ]

(* A single Q store straddling the page 0 / page 1 boundary. *)
let straddle_program () =
  Prog.program
    [ Prog.func "main"
        [ Prog.block "main"
            [ original
                (Instr.Mov (Reg.Q, Instr.Imm 0x0123456789abcdefL,
                            Instr.Reg Reg.RAX));
              original
                (Instr.Mov (Reg.Q, Instr.Reg Reg.RAX,
                            Instr.Mem (Instr.mem 4094)));
              original (Instr.Mov (Reg.Q, Instr.Imm 0L, Instr.Reg Reg.RDI));
              original (Instr.Call "print_i64");
              original Instr.Ret ] ] ]

(* Crash-at-flip-site: the very first eligible write-back loads a base
   register; flipping one of its high bits sends the immediately
   following load out of the address space, so the crash surfaces on
   the first post-restore instruction. *)
let crash_program () =
  Prog.program
    [ Prog.func "main"
        [ Prog.block "main"
            [ original (Instr.Mov (Reg.Q, Instr.Imm 4096L, Instr.Reg Reg.RBX));
              original
                (Instr.Mov
                   ( Reg.Q, Instr.Mem (Instr.mem ~base:Reg.RBX 0),
                     Instr.Reg Reg.RAX ));
              original (Instr.Mov (Reg.Q, Instr.Reg Reg.RAX, Instr.Reg Reg.RDI));
              original (Instr.Call "print_i64");
              original Instr.Ret ] ] ]

(* Timeout-near-fuel: a counted loop whose bound lives in a register
   for its whole run; corrupting the bound or the counter overruns the
   loop until the injector's fuel gives out.  Fuel accounting must
   count from program start even when the run resumes mid-way from a
   checkpoint. *)
let timeout_program () =
  Prog.program
    [ Prog.func "main"
        [ Prog.block "main"
            [ original (Instr.Mov (Reg.Q, Instr.Imm 60L, Instr.Reg Reg.RBX));
              original (Instr.Mov (Reg.Q, Instr.Imm 0L, Instr.Reg Reg.RAX)) ];
          Prog.block "loop"
            [ original
                (Instr.Alu (Instr.Add, Reg.Q, Instr.Imm 1L, Instr.Reg Reg.RAX));
              original (Instr.Cmp (Reg.Q, Instr.Reg Reg.RBX, Instr.Reg Reg.RAX));
              original (Instr.Jcc (Cond.NE, "loop")) ];
          Prog.block "done"
            [ original (Instr.Mov (Reg.Q, Instr.Reg Reg.RAX, Instr.Reg Reg.RDI));
              original (Instr.Call "print_i64");
              original Instr.Ret ] ] ]

(* Memory-only corruption: the one eligible site computes a value that
   is stored and then dropped from its register, so a flip of it leaves
   the registers golden and one data page different.  Pass 1 fills
   a[0..199]; pass 2 rewrites a[0..99], repairing a fault there (the
   run converges back to golden); a fault in a[100..199] survives into
   the final sum (SDC).  Every other instruction is instrumentation, so
   no sample lands elsewhere. *)
let memory_only_program () =
  let inert op = { Instr.op; prov = Instr.Instrumentation } in
  let slot = Instr.Mem (Instr.mem ~index:Reg.RCX ~scale:8 3600) in
  let fill ~label ~bound ~prov =
    Prog.block label
      [ inert (Instr.Mov (Reg.Q, Instr.Reg Reg.RCX, Instr.Reg Reg.RAX));
        prov (Instr.Alu (Instr.Add, Reg.Q, Instr.Imm 1000L, Instr.Reg Reg.RAX));
        inert (Instr.Mov (Reg.Q, Instr.Reg Reg.RAX, slot));
        inert (Instr.Alu (Instr.Add, Reg.Q, Instr.Imm 1L, Instr.Reg Reg.RCX));
        inert (Instr.Cmp (Reg.Q, Instr.Imm bound, Instr.Reg Reg.RCX));
        inert (Instr.Jcc (Cond.NE, label)) ]
  in
  Prog.program
    [ Prog.func "main"
        [ Prog.block "main"
            [ inert (Instr.Mov (Reg.Q, Instr.Imm 0L, Instr.Reg Reg.RCX)) ];
          fill ~label:"fill" ~bound:200L ~prov:original;
          Prog.block "refill_init"
            [ inert (Instr.Mov (Reg.Q, Instr.Imm 0L, Instr.Reg Reg.RCX)) ];
          fill ~label:"refill" ~bound:100L ~prov:inert;
          Prog.block "sum_init"
            [ inert (Instr.Mov (Reg.Q, Instr.Imm 100L, Instr.Reg Reg.RCX));
              inert (Instr.Mov (Reg.Q, Instr.Imm 0L, Instr.Reg Reg.RDX)) ];
          Prog.block "sum"
            [ inert (Instr.Alu (Instr.Add, Reg.Q, slot, Instr.Reg Reg.RDX));
              inert
                (Instr.Alu (Instr.Add, Reg.Q, Instr.Imm 1L, Instr.Reg Reg.RCX));
              inert (Instr.Cmp (Reg.Q, Instr.Imm 200L, Instr.Reg Reg.RCX));
              inert (Instr.Jcc (Cond.NE, "sum")) ];
          Prog.block "done"
            [ inert (Instr.Mov (Reg.Q, Instr.Reg Reg.RDX, Instr.Reg Reg.RDI));
              inert (Instr.Call "print_i64");
              inert Instr.Ret ] ] ]

(* ---- helpers ---- *)

let check_state_eq name (want : Machine.state) (got : Machine.state) =
  Alcotest.(check (array int64)) (name ^ ": gpr")
    (Machine.dump_regfile want.Machine.gpr)
    (Machine.dump_regfile got.Machine.gpr);
  Alcotest.(check (array int64)) (name ^ ": simd")
    (Machine.dump_regfile want.Machine.simd)
    (Machine.dump_regfile got.Machine.simd);
  Alcotest.(check bool) (name ^ ": zf") want.Machine.zf got.Machine.zf;
  Alcotest.(check bool) (name ^ ": sf") want.Machine.sf got.Machine.sf;
  Alcotest.(check bool) (name ^ ": cf") want.Machine.cf got.Machine.cf;
  Alcotest.(check bool) (name ^ ": off") want.Machine.off got.Machine.off;
  Alcotest.(check int) (name ^ ": ip") want.Machine.ip got.Machine.ip;
  Alcotest.(check int) (name ^ ": steps") want.Machine.steps got.Machine.steps;
  Alcotest.(check (float 0.)) (name ^ ": cycles") want.Machine.cycles
    got.Machine.cycles;
  Alcotest.(check (list int64)) (name ^ ": output") want.Machine.out_rev
    got.Machine.out_rev;
  Alcotest.(check bool) (name ^ ": memory") true
    (Bytes.equal want.Machine.mem got.Machine.mem)

(* Serialized per-injection records for [samples] campaign samples. *)
let target_lines t ~seed ~samples =
  List.init samples (fun sample ->
      let _, _, r = F.campaign_sample t ~seed ~sample in
      Json.to_string (F.record_to_json r))

let campaign_lines ~engine ~seed ~samples img =
  target_lines (F.prepare ~engine img) ~seed ~samples

(* Assert every fast engine reproduces the scratch record stream byte
   for byte. *)
let check_identity name engines ~seed ~samples img =
  let reference = campaign_lines ~engine:F.Scratch ~seed ~samples img in
  List.iter
    (fun e ->
      Alcotest.(check (list string))
        (Printf.sprintf "%s seed=%Ld %s" name seed (F.engine_name e))
        reference
        (campaign_lines ~engine:e ~seed ~samples img))
    engines

(* Everything a traced campaign produces, flattened to strings: the
   record stream, the vulnmap rows, and the raw latency/escape lists
   (hex floats, so equality is bit-exactness). *)
let vulnmap_strings ~engine ~seed ~samples img =
  let recs = ref [] in
  let v =
    F.vulnmap_campaign ~engine ~seed ~samples
      ~on_record:(fun r -> recs := Json.to_string (F.record_to_json r) :: !recs)
      img
  in
  let rows = List.map Json.to_string (F.vulnmap_rows v) in
  let lats =
    List.map (fun (s, c) -> Printf.sprintf "%d:%h" s c) v.F.v_latencies
  in
  let escs =
    List.map
      (fun (i, e) -> Printf.sprintf "%d:%s" i (Propagation.escape_name e))
      v.F.v_escapes
  in
  List.rev !recs @ rows @ lats @ escs

let fast_fixture_engines =
  [ F.Pooled; F.Checkpointed 1; F.Checkpointed 2; F.Checkpointed 3;
    F.Checkpointed 64 ]

(* ---- dirty-page tracking ---- *)

let test_track_attach_and_pages () =
  let img = Machine.load (loop_program ()) in
  let st = Machine.fresh_state img in
  Alcotest.(check bool) "fresh state untracked" true (st.Machine.track = None);
  Machine.track_writes st;
  let tr =
    match st.Machine.track with
    | Some tr -> tr
    | None -> Alcotest.fail "track_writes attached no tracker"
  in
  Machine.track_writes st;
  (match st.Machine.track with
  | Some tr' -> Alcotest.(check bool) "attach is idempotent" true (tr == tr')
  | None -> Alcotest.fail "tracker lost");
  (try
     while true do
       ignore (Machine.step img st)
     done
   with Machine.Halt _ -> ());
  let pages =
    Array.to_list (Array.sub tr.Machine.tr_pages 0 tr.Machine.tr_count)
  in
  let uniq = List.sort_uniq compare pages in
  Alcotest.(check int) "bitmap dedupes the first-touch log"
    (List.length uniq) (List.length pages);
  Alcotest.(check bool) "data page 0 dirty" true (List.mem 0 uniq);
  Alcotest.(check bool) "data page 1 dirty (stores crossed 4096)" true
    (List.mem 1 uniq);
  Machine.clear_dirty st;
  Alcotest.(check int) "clear_dirty empties the log" 0 tr.Machine.tr_count;
  ignore (Machine.step img (Machine.fresh_state img))

let test_track_straddling_store () =
  let img = Machine.load (straddle_program ()) in
  let st = Machine.fresh_state img in
  Machine.track_writes st;
  let tr = match st.Machine.track with Some tr -> tr | None -> assert false in
  (try
     while true do
       ignore (Machine.step img st)
     done
   with Machine.Halt _ -> ());
  let pages =
    Array.to_list (Array.sub tr.Machine.tr_pages 0 tr.Machine.tr_count)
  in
  Alcotest.(check bool) "page 0 dirty" true (List.mem 0 pages);
  Alcotest.(check bool) "Q store at 4094 also dirties page 1" true
    (List.mem 1 pages)

(* ---- snapshot capture and restore ---- *)

(* Reference: a fresh state stepped to exactly [steps] retired
   instructions. *)
let stepped_reference img steps =
  let st = Machine.fresh_state img in
  (try
     while st.Machine.steps < steps do
       ignore (Machine.step img st)
     done
   with Machine.Halt _ | Machine.Trap _ -> ());
  st

let test_restore_exactness () =
  let img = Machine.load (loop_program ()) in
  let cache = Snapshot.build ~interval:7 ~counted:(fun _ -> true) img in
  Alcotest.(check bool) "many checkpoints captured" true
    (Snapshot.ckpt_count cache > 100);
  let sl = Snapshot.make_slot cache in
  (* Visit checkpoints forwards and backwards, dirtying the slot
     between restores so each restore has real work to undo. *)
  List.iter
    (fun dyn ->
      let seen = Snapshot.restore sl ~dyn_index:dyn in
      let st = Snapshot.state sl in
      Alcotest.(check bool)
        (Printf.sprintf "restore %d resumes at or before the site" dyn)
        true
        (seen <= dyn);
      check_state_eq
        (Printf.sprintf "restore dyn=%d" dyn)
        (stepped_reference img st.Machine.steps)
        st;
      try
        for _ = 1 to 50 do
          ignore (Machine.step img st)
        done
      with Machine.Halt _ | Machine.Trap _ -> ())
    [ 0; 3; 900; 14; 500; 499; 1300; 2; 0; 700 ];
  Snapshot.reset sl;
  check_state_eq "reset restores the pristine start"
    (Machine.fresh_state img) (Snapshot.state sl)

let test_pooled_cache_resets () =
  (* interval:None — no checkpoints, but restore-to-pristine must still
     be exact after the slot has run to completion. *)
  let img = Machine.load (loop_program ()) in
  let cache = Snapshot.build ~counted:(fun _ -> true) img in
  Alcotest.(check int) "no checkpoints" 0 (Snapshot.ckpt_count cache);
  let sl = Snapshot.make_slot cache in
  for _ = 1 to 3 do
    let seen = Snapshot.restore sl ~dyn_index:12345 in
    Alcotest.(check int) "pristine restore sees zero write-backs" 0 seen;
    let st = Snapshot.state sl in
    check_state_eq "pristine slot" (Machine.fresh_state img) st;
    try
      while true do
        ignore (Machine.step img st)
      done
    with Machine.Halt _ -> ()
  done

let test_sync_clones_run_state () =
  let img = Machine.load (loop_program ()) in
  let cache = Snapshot.build ~interval:13 ~counted:(fun _ -> true) img in
  let src = Snapshot.make_slot cache in
  let dst = Snapshot.make_slot cache in
  ignore (Snapshot.restore src ~dyn_index:400);
  let sst = Snapshot.state src in
  (try
     for _ = 1 to 37 do
       ignore (Machine.step img sst)
     done
   with Machine.Halt _ | Machine.Trap _ -> ());
  ignore (Snapshot.restore dst ~dyn_index:400);
  Snapshot.sync ~src dst;
  check_state_eq "sync copies the advanced state" sst (Snapshot.state dst);
  (* The copy must also be usable: both continue identically. *)
  let dstt = Snapshot.state dst in
  (try
     for _ = 1 to 100 do
       ignore (Machine.step img sst);
       ignore (Machine.step img dstt)
     done
   with Machine.Halt _ | Machine.Trap _ -> ());
  check_state_eq "synced slot tracks the source" sst dstt

(* ---- golden convergence predicate ---- *)

(* A slot on the loop fixture (checkpoints every 64 steps) restored to
   checkpoint 3 and run unobserved to checkpoint 5's step count, so its
   stores dirtied real pages on the way.  Every instruction is counted,
   so a checkpoint's write-back index is its step count. *)
let converged_fixture () =
  let img = Machine.load (loop_program ()) in
  let cache = Snapshot.build ~interval:64 ~counted:(fun _ -> true) img in
  let sl = Snapshot.make_slot cache in
  ignore (Snapshot.restore sl ~dyn_index:(Snapshot.ckpt_steps cache 3) : int);
  let st = Snapshot.state sl in
  Alcotest.(check bool) "a restored checkpoint matches itself" true
    (Snapshot.converged sl 3);
  Alcotest.(check int) "next checkpoint after the restore point" 4
    (Snapshot.next_ckpt cache ~steps:st.Machine.steps);
  (match
     Predecode.exec ~fuel:(Snapshot.ckpt_steps cache 5) (Predecode.get img) st
   with
  | Machine.Timeout -> ()
  | o -> Alcotest.failf "leg ended early: %a" Machine.pp_outcome o);
  (sl, st)

let test_converged_at_boundary () =
  let sl, st = converged_fixture () in
  Alcotest.(check bool) "untouched run matches golden checkpoint 5" true
    (Snapshot.converged sl 5);
  Alcotest.(check bool) "but not checkpoint 4 (steps differ)" false
    (Snapshot.converged sl 4);
  Alcotest.(check bool) "the leg dirtied pages" true
    (match st.Machine.track with
    | Some tr -> tr.Machine.tr_count > 0
    | None -> false)

let test_converged_memory () =
  let sl, st = converged_fixture () in
  let addr = 3600L in
  let v = Machine.read_mem st addr Reg.Q in
  Machine.write_mem st addr Reg.Q (Int64.add v 1L);
  Alcotest.(check bool) "a store of a different value diverges" false
    (Snapshot.converged sl 5);
  Machine.write_mem st addr Reg.Q v;
  Alcotest.(check bool) "writing the original back converges again" true
    (Snapshot.converged sl 5)

(* Checkpoint 5's registers over checkpoint 3's memory, nothing dirty:
   only the golden deltas in between say which pages to compare. *)
let test_converged_golden_deltas () =
  let img = Machine.load (loop_program ()) in
  let cache = Snapshot.build ~interval:64 ~counted:(fun _ -> true) img in
  let restored c =
    let sl = Snapshot.make_slot cache in
    ignore (Snapshot.restore sl ~dyn_index:(Snapshot.ckpt_steps cache c) : int);
    sl
  in
  let golden = restored 5 and sl = restored 3 in
  Machine.reset_regs ~from:(Snapshot.state golden) (Snapshot.state sl);
  Alcotest.(check bool) "stale memory under golden registers" false
    (Snapshot.converged sl 5)

let test_converged_scalars () =
  let sl, st = converged_fixture () in
  let out = st.Machine.out_rev in
  st.Machine.out_rev <- 7L :: out;
  Alcotest.(check bool) "only the output differs" false
    (Snapshot.converged sl 5);
  st.Machine.out_rev <- out;
  let cycles = st.Machine.cycles in
  st.Machine.cycles <- Float.succ cycles;
  Alcotest.(check bool) "cycles one ulp apart" false (Snapshot.converged sl 5);
  st.Machine.cycles <- cycles;
  Machine.flip_simd_lane st 15 ~lane:3 ~bit:63;
  Alcotest.(check bool) "one SIMD bit apart" false (Snapshot.converged sl 5);
  Machine.flip_simd_lane st 15 ~lane:3 ~bit:63;
  Alcotest.(check bool) "all restored" true (Snapshot.converged sl 5)

(* ---- one golden walk: prepare's capture vs a reference walk ---- *)

(* A checkpoint flattened to labelled field strings, so a mismatch
   names the checkpoint and the field.  Page contents go in as digests
   of each page's valid bytes. *)
let ckpt_fields ~mem_size i ~steps ~seen ~ip ~cycles ~flags ~gpr ~simd
    ~out_rev ~pages ~data =
  let f name v = Printf.sprintf "ckpt %d %s: %s" i name v in
  let ints a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
  let regs r =
    String.concat ","
      (Array.to_list (Array.map Int64.to_string (Machine.dump_regfile r)))
  in
  let page_digest j p =
    let len = min Machine.page_size (mem_size - (p lsl Machine.page_bits)) in
    Digest.to_hex (Digest.subbytes data (j * Machine.page_size) len)
  in
  [ f "steps" (string_of_int steps);
    f "seen" (string_of_int seen);
    f "ip" (string_of_int ip);
    f "cycles" (Int64.to_string (Int64.bits_of_float cycles));
    f "flags" flags;
    f "gpr" (regs gpr);
    f "simd" (regs simd);
    f "out_rev" (String.concat "," (List.map Int64.to_string out_rev));
    f "pages" (ints pages);
    f "data" (String.concat "," (Array.to_list (Array.mapi page_digest pages)))
  ]

let flags_of zf sf cf off = Printf.sprintf "%b %b %b %b" zf sf cf off

let cache_fields img cache =
  List.concat
    (List.init (Snapshot.ckpt_count cache) (fun i ->
         let c = Snapshot.ckpt cache i in
         ckpt_fields ~mem_size:img.Machine.mem_size i ~steps:c.Snapshot.c_steps
           ~seen:c.c_seen ~ip:c.c_ip ~cycles:c.c_cycles
           ~flags:(flags_of c.c_zf c.c_sf c.c_cf c.c_off)
           ~gpr:c.c_gpr ~simd:c.c_simd ~out_rev:c.c_out_rev ~pages:c.c_pages
           ~data:c.c_data))

(* The golden profile and checkpoints as a plain [step1] loop computes
   them: before each step, when the step count is a positive multiple
   of [k], copy the state and the pages dirtied since the previous copy.
   The check comes before the step, so nothing is captured at or past
   the halting instruction. *)
let reference_walk ?k img eligible =
  let st = Machine.fresh_state img in
  Machine.track_writes st;
  let tr = Option.get st.Machine.track in
  let pre = Predecode.get img in
  let len = Array.length img.Machine.code in
  let seen = ref 0 and sites = ref [] and ckpts = ref [] in
  let capture () =
    let pages = Array.sub tr.Machine.tr_pages 0 tr.Machine.tr_count in
    Array.sort compare pages;
    let data = Bytes.make (Array.length pages * Machine.page_size) '\000' in
    Array.iteri
      (fun j p ->
        let off = p lsl Machine.page_bits in
        let n = min Machine.page_size (img.Machine.mem_size - off) in
        Bytes.blit st.Machine.mem off data (j * Machine.page_size) n)
      pages;
    Machine.clear_dirty st;
    ckpts :=
      ckpt_fields ~mem_size:img.Machine.mem_size (List.length !ckpts)
        ~steps:st.Machine.steps ~seen:!seen ~ip:st.Machine.ip
        ~cycles:st.Machine.cycles
        ~flags:(flags_of st.Machine.zf st.Machine.sf st.Machine.cf st.Machine.off)
        ~gpr:st.Machine.gpr ~simd:st.Machine.simd
        ~out_rev:st.Machine.out_rev ~pages ~data
      :: !ckpts
  in
  let output =
    try
      while true do
        if st.Machine.ip < 0 || st.Machine.ip >= len then
          Alcotest.fail "reference walk left the code";
        (match k with
        | Some k when st.Machine.steps > 0 && st.Machine.steps mod k = 0 ->
          capture ()
        | _ -> ());
        let idx = Predecode.step1 pre st in
        if eligible.(idx) then begin
          incr seen;
          sites := idx :: !sites
        end
      done;
      assert false
    with Machine.Halt (Machine.Exit out) -> out
  in
  ( ( st.Machine.steps, st.Machine.cycles, output, !seen,
      Array.of_list (List.rev !sites) ),
    List.concat (List.rev !ckpts) )

(* [prepare ~engine img]'s profile and cache equal the reference walk's
   field by field. *)
let check_prepared name ~engine img =
  let t = F.prepare ~engine img in
  let k = match engine with F.Checkpointed k -> Some k | _ -> None in
  let (steps, cycles, output, eligible_steps, dyn_static), want =
    reference_walk ?k img t.F.eligible
  in
  let name = name ^ " " ^ F.engine_name engine in
  Alcotest.(check int) (name ^ ": golden_steps") steps t.F.golden_steps;
  Alcotest.(check int64) (name ^ ": golden_cycles")
    (Int64.bits_of_float cycles)
    (Int64.bits_of_float t.F.golden_cycles);
  Alcotest.(check (list int64)) (name ^ ": golden_output") output
    t.F.golden_output;
  Alcotest.(check int) (name ^ ": eligible_steps") eligible_steps
    t.F.eligible_steps;
  Alcotest.(check (array int)) (name ^ ": dyn_static") dyn_static
    t.F.dyn_static;
  Alcotest.(check int) (name ^ ": fuel") ((steps * 3) + 100_000) t.F.fuel;
  Alcotest.(check (list string)) (name ^ ": checkpoints") want
    (cache_fields img t.F.cache);
  for i = 0 to Snapshot.ckpt_count t.F.cache - 1 do
    if Snapshot.ckpt_steps t.F.cache i >= t.F.golden_steps then
      Alcotest.failf "%s: checkpoint %d at or past the halting step" name i
  done;
  t

let fixture_programs =
  [ ("loop", loop_program); ("straddle", straddle_program);
    ("crash", crash_program); ("timeout", timeout_program);
    ("memory-only", memory_only_program) ]

let test_prepare_fixtures () =
  List.iter
    (fun (name, prog) ->
      let img = Machine.load (prog ()) in
      List.iter
        (fun engine -> ignore (check_prepared name ~engine img : F.target))
        [ F.Scratch; F.Pooled; F.Checkpointed 1; F.Checkpointed 7;
          F.Checkpointed 64 ])
    fixture_programs

(* The halting step is the last the observer sees; when the golden
   length is a multiple of K a capture lands exactly there and must be
   dropped. *)
let test_prepare_exact_multiple () =
  let img = Machine.load (loop_program ()) in
  let g = (F.prepare ~engine:F.Scratch img).F.golden_steps in
  let divisor =
    let rec go d = if g mod d = 0 then d else go (d + 1) in
    go 2
  in
  List.iter
    (fun k ->
      let t = check_prepared "loop" ~engine:(F.Checkpointed k) img in
      Alcotest.(check int)
        (Printf.sprintf "K=%d divides %d: last checkpoint one K short" k g)
        ((g / k) - 1)
        (Snapshot.ckpt_count t.F.cache))
    [ g / divisor; g ]

let test_prepare_scratch_pooled () =
  let img = Machine.load (loop_program ()) in
  List.iter
    (fun engine ->
      let t = check_prepared "loop" ~engine img in
      Alcotest.(check int) (F.engine_name engine ^ " captures nothing") 0
        (Snapshot.ckpt_count t.F.cache))
    [ F.Scratch; F.Pooled ]

let test_prepare_catalogue () =
  List.iter
    (fun entry ->
      List.iter
        (fun (cname, res) ->
          let img = Machine.load res.Pipeline.program in
          ignore
            (check_prepared
               (entry.Catalog.name ^ "/" ^ cname)
               ~engine:(F.Checkpointed 4096) img
              : F.target))
        (("raw", Pipeline.raw (entry.Catalog.build ()))
        :: List.map
             (fun tech ->
               (Technique.short_name tech,
                Pipeline.protect tech (entry.Catalog.build ())))
             Technique.all))
    Catalog.all

(* One golden walk per target also feeds the manifest: [prepare]'s
   per-provenance cycles are bit-for-bit the sums [Profile.run] makes
   on its own walk, and a manifest made from the target survives a
   save/load round trip with its digest intact (its floats are stored
   as their JSON text reads back). *)
let test_prepare_manifest_catalogue () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ferrum-snapshot-%d-manifest" (Unix.getpid ()))
  in
  Fsutil.mkdir_p dir;
  List.iter
    (fun entry ->
      List.iter
        (fun (cname, res) ->
          let program = res.Pipeline.program in
          let img = Machine.load program in
          let profile = Profile.run img in
          let want =
            List.map
              (fun (r : Profile.prov_row) ->
                (Profile.prov_name r.Profile.prov,
                 Int64.bits_of_float r.Profile.p_cycles))
              profile.Profile.by_provenance
          in
          List.iter
            (fun (scope, all_sites) ->
              let name =
                Printf.sprintf "%s/%s %s" entry.Catalog.name cname
                  (if all_sites then "all-sites" else "original")
              in
              let t = F.prepare ~scope img in
              Alcotest.(check (list (pair string int64)))
                (name ^ ": provenance split") want
                (List.map
                   (fun p ->
                     (Profile.prov_name p,
                      Int64.bits_of_float
                        t.F.golden_prov_cycles.(Profile.prov_index p)))
                   Profile.provenances);
              let m =
                Manifest.make ~benchmark:entry.Catalog.name ~technique:cname
                  ~samples:400 ~seed:2024L ~shards:4 ~fault_bits:1 ~all_sites
                  ~traced:true ~program t
              in
              Manifest.save ~dir m;
              match Manifest.load ~dir with
              | Error e -> Alcotest.failf "%s: load: %s" name e
              | Ok m' ->
                Alcotest.(check string) (name ^ ": digest survives save/load")
                  (Manifest.digest m) (Manifest.digest m'))
            [ (F.Original_only, false); (F.All_sites, true) ])
        (("raw", Pipeline.raw (entry.Catalog.build ()))
        :: List.map
             (fun tech ->
               (Technique.short_name tech,
                Pipeline.protect tech (entry.Catalog.build ())))
             Technique.all))
    Catalog.all;
  Fsutil.rm_rf dir

(* The walk is counted where it happens: once, in the process that
   prepared the target.  Samples never walk again, and forked workers,
   which reset their tallies, report none. *)
let test_one_walk () =
  let img = Machine.load (loop_program ()) in
  let t = F.prepare ~engine:(F.Checkpointed 64) img in
  let walks () = ((F.phases t).F.ph_walks, (F.phases t).F.ph_walk_steps) in
  Alcotest.(check (pair int int)) "prepare walks once" (1, t.F.golden_steps)
    (walks ());
  ignore (target_lines t ~seed:3L ~samples:20 : string list);
  Alcotest.(check (pair int int)) "samples never walk" (1, t.F.golden_steps)
    (walks ());
  let r = Runner.run ~mode:Runner.Traced ~shards:2 ~seed:3L ~samples:20 t in
  let spans =
    match Trace.rows_of_lines r.Runner.trace_spans with
    | Ok rows -> Trace.spans_of_rows rows
    | Error e -> Alcotest.failf "rows: %s" e
  in
  let engines = List.filter (fun s -> s.Trace.sp_name = "engine") spans in
  Alcotest.(check int) "one engine span per worker" 2 (List.length engines);
  List.iter
    (fun s ->
      Alcotest.(check (option int)) "workers do not walk" (Some 0)
        (List.assoc_opt "walks" s.Trace.sp_counters))
    engines

(* ---- engine bit-identity on fixtures ---- *)

let test_fixture_identity () =
  let img = Machine.load (loop_program ()) in
  List.iter
    (fun seed ->
      check_identity "loop fixture" fast_fixture_engines ~seed ~samples:60 img)
    [ 1L; 42L ]

let test_fixture_vulnmap_identity () =
  let img = Machine.load (loop_program ()) in
  let reference = vulnmap_strings ~engine:F.Scratch ~seed:17L ~samples:40 img in
  List.iter
    (fun e ->
      Alcotest.(check (list string))
        ("loop fixture vulnmap " ^ F.engine_name e)
        reference
        (vulnmap_strings ~engine:e ~seed:17L ~samples:40 img))
    fast_fixture_engines

let test_crash_at_flip_site () =
  let img = Machine.load (crash_program ()) in
  let res = F.campaign ~engine:F.Scratch ~seed:3L ~samples:40 img in
  Alcotest.(check bool) "high-bit flips of the base register crash" true
    (res.F.counts.F.crash > 0);
  List.iter
    (fun seed ->
      check_identity "crash fixture" fast_fixture_engines ~seed ~samples:40 img)
    [ 3L; 77L ]

let test_timeout_near_fuel () =
  let img = Machine.load (timeout_program ()) in
  let res = F.campaign ~engine:F.Scratch ~seed:9L ~samples:40 img in
  Alcotest.(check bool) "corrupted loop bounds exhaust the fuel" true
    (res.F.counts.F.timeout > 0);
  List.iter
    (fun seed ->
      check_identity "timeout fixture" fast_fixture_engines ~seed ~samples:40
        img)
    [ 9L; 23L ]

(* Registers equal, one page different: only the page compare can tell
   the SDC runs (fault in a[100..199]) from golden, and the repaired
   ones (a[0..99]) must converge.  The records must still be the
   scratch path's. *)
let test_memory_only_corruption () =
  let img = Machine.load (memory_only_program ()) in
  let seed = 5L and samples = 40 in
  check_identity "memory-only fixture" fast_fixture_engines ~seed ~samples img;
  let t = F.prepare ~engine:(F.Checkpointed 64) img in
  let counts =
    List.fold_left
      (fun c sample ->
        let cls, _, _ = F.campaign_sample t ~seed ~sample in
        F.add_count c cls)
      F.zero_counts
      (List.init samples Fun.id)
  in
  Alcotest.(check bool) "surviving memory faults are SDCs" true
    (counts.F.sdc > 0);
  Alcotest.(check bool) "repaired memory faults converge" true
    ((F.phases t).F.ph_converged > 0)

(* ---- engine bit-identity across the catalogue ---- *)

(* K = 1 is exercised on the small fixtures above and on the smallest
   kernel below only: one checkpoint per dynamic instruction over most
   catalogue workloads' hundreds of thousands of steps would pin
   hundreds of megabytes of page deltas. *)
let catalogue_engines = [ F.Pooled; F.Checkpointed 64; F.Checkpointed 4096 ]

let test_catalogue_identity () =
  let techniques =
    [ Technique.Ir_level_eddi; Technique.Hybrid_assembly_eddi;
      Technique.Ferrum ]
  in
  List.iter
    (fun entry ->
      List.iter
        (fun tech ->
          let res = Pipeline.protect tech (entry.Catalog.build ()) in
          let img = Machine.load res.Pipeline.program in
          check_identity
            (entry.Catalog.name ^ "/" ^ Technique.short_name tech)
            catalogue_engines ~seed:7L ~samples:8 img)
        techniques)
    Catalog.all

let kmeans_build () =
  match Catalog.find "kmeans" with
  | Some e -> e.Catalog.build ()
  | None -> Alcotest.fail "no catalogue entry kmeans"

(* The suite above would pass vacuously if no suffix ever converged.
   On kmeans most benign faults are masked within a few thousand
   steps, so the default engine must end some runs at a golden
   checkpoint — and still reproduce the scratch records. *)
let test_catalogue_convergence () =
  let seed = 7L and samples = 40 in
  List.iter
    (fun (name, res) ->
      let img = Machine.load res.Pipeline.program in
      let t = F.prepare ~engine:F.default_engine img in
      Alcotest.(check (list string))
        (name ^ " records")
        (campaign_lines ~engine:F.Scratch ~seed ~samples img)
        (target_lines t ~seed ~samples);
      let ph = F.phases t in
      Alcotest.(check bool) (name ^ " converged") true (ph.F.ph_converged > 0);
      Alcotest.(check bool) (name ^ " skipped golden steps") true
        (ph.F.ph_skipped_steps > 0))
    [ ("kmeans/raw", Pipeline.raw (kmeans_build ()));
      ("kmeans/ferrum", Pipeline.protect Technique.Ferrum (kmeans_build ())) ]

(* K = 1 checks convergence after every single step, splitting every
   fused pair; on the smallest kernel the checkpoint set stays small
   enough to hold. *)
let test_catalogue_every_step () =
  let entry =
    match Catalog.find "kNN" with Some e -> e | None -> assert false
  in
  let img = Machine.load (Pipeline.raw (entry.Catalog.build ())).Pipeline.program in
  check_identity "kNN/raw" [ F.Checkpointed 1 ] ~seed:7L ~samples:8 img

let test_catalogue_vulnmap_identity () =
  List.iter
    (fun name ->
      let entry =
        match Catalog.find name with
        | Some e -> e
        | None -> Alcotest.failf "no catalogue entry %s" name
      in
      let res = Pipeline.protect Technique.Ferrum (entry.Catalog.build ()) in
      let img = Machine.load res.Pipeline.program in
      let reference =
        vulnmap_strings ~engine:F.Scratch ~seed:11L ~samples:6 img
      in
      List.iter
        (fun e ->
          Alcotest.(check (list string))
            (Printf.sprintf "%s vulnmap %s" name (F.engine_name e))
            reference
            (vulnmap_strings ~engine:e ~seed:11L ~samples:6 img))
        [ F.Pooled; F.Checkpointed 64 ])
    [ "kmeans"; "lud" ]

(* ---- sharded campaigns on the checkpointed engine ---- *)

let test_sharded_checkpointed_identity () =
  let entry =
    match Catalog.find "kmeans" with Some e -> e | None -> assert false
  in
  let res = Pipeline.protect Technique.Ferrum (entry.Catalog.build ()) in
  let img = Machine.load res.Pipeline.program in
  let samples = 30 and seed = 5L in
  let seq_records = campaign_lines ~engine:F.Scratch ~seed ~samples img in
  let t = F.prepare ~engine:(F.Checkpointed 64) img in
  let inj = Runner.run ~mode:Runner.Inject ~shards:3 ~seed ~samples t in
  Alcotest.(check (list string)) "sharded inject records" seq_records
    inj.Runner.record_lines;
  let traced = Runner.run ~mode:Runner.Traced ~shards:3 ~seed ~samples t in
  Alcotest.(check (list string)) "sharded traced records" seq_records
    traced.Runner.record_lines;
  let v =
    match traced.Runner.vulnmap with
    | Some v -> v
    | None -> Alcotest.fail "traced run produced no vulnmap"
  in
  let seq_v = F.vulnmap_campaign ~engine:F.Scratch ~seed ~samples img in
  Alcotest.(check (list string)) "sharded vulnmap rows"
    (List.map Json.to_string (F.vulnmap_rows seq_v))
    (List.map Json.to_string (F.vulnmap_rows v))

(* ---- engine names ---- *)

let test_engine_names_roundtrip () =
  List.iter
    (fun e ->
      match F.engine_of_name (F.engine_name e) with
      | Some e' ->
          Alcotest.(check string) "round trip" (F.engine_name e)
            (F.engine_name e')
      | None -> Alcotest.failf "engine name %s did not parse" (F.engine_name e))
    [ F.Scratch; F.Pooled; F.Checkpointed 1; F.Checkpointed 4096 ];
  Alcotest.(check bool) "unknown name rejected" true
    (F.engine_of_name "ckpt-0" = None && F.engine_of_name "warp" = None)

let () =
  Alcotest.run "snapshot"
    [
      ( "tracking",
        [ Alcotest.test_case "attach and dirty pages" `Quick
            test_track_attach_and_pages;
          Alcotest.test_case "straddling store" `Quick
            test_track_straddling_store ] );
      ( "restore",
        [ Alcotest.test_case "bit-exact restore" `Quick test_restore_exactness;
          Alcotest.test_case "pooled pristine resets" `Quick
            test_pooled_cache_resets;
          Alcotest.test_case "sync" `Quick test_sync_clones_run_state ] );
      ( "prepare",
        [ Alcotest.test_case "fixtures match a reference walk" `Quick
            test_prepare_fixtures;
          Alcotest.test_case "golden length a multiple of K" `Quick
            test_prepare_exact_multiple;
          Alcotest.test_case "scratch and pooled capture nothing" `Quick
            test_prepare_scratch_pooled;
          Alcotest.test_case "one golden walk" `Quick test_one_walk ] );
      ( "identity",
        [ Alcotest.test_case "loop fixture" `Quick test_fixture_identity;
          Alcotest.test_case "loop fixture vulnmap" `Quick
            test_fixture_vulnmap_identity;
          Alcotest.test_case "crash at flip site" `Quick
            test_crash_at_flip_site;
          Alcotest.test_case "timeout near fuel" `Quick test_timeout_near_fuel;
          Alcotest.test_case "memory-only corruption" `Quick
            test_memory_only_corruption ] );
      ( "convergence",
        [ Alcotest.test_case "golden boundary" `Quick test_converged_at_boundary;
          Alcotest.test_case "page contents decide" `Quick
            test_converged_memory;
          Alcotest.test_case "golden deltas compared" `Quick
            test_converged_golden_deltas;
          Alcotest.test_case "output, cycles, registers" `Quick
            test_converged_scalars ] );
      ( "catalogue",
        [ Alcotest.test_case "prepare matches a reference walk" `Slow
            test_prepare_catalogue;
          Alcotest.test_case "provenance split and manifest round trip" `Slow
            test_prepare_manifest_catalogue;
          Alcotest.test_case "records across engines" `Slow
            test_catalogue_identity;
          Alcotest.test_case "vulnmaps across engines" `Slow
            test_catalogue_vulnmap_identity;
          Alcotest.test_case "convergence fires on kmeans" `Slow
            test_catalogue_convergence;
          Alcotest.test_case "kNN raw at every step" `Slow
            test_catalogue_every_step ] );
      ( "sharded",
        [ Alcotest.test_case "checkpointed runner byte-identity" `Slow
            test_sharded_checkpointed_identity ] );
      ( "engines",
        [ Alcotest.test_case "name round-trip" `Quick
            test_engine_names_roundtrip ] );
    ]
