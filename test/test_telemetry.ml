(* Tests for the telemetry subsystem: flight-recorder ring buffer,
   canonical JSON / JSONL metrics, per-opcode profiles,
   and campaign metrics reproducibility. *)

open Ferrum_asm
module Machine = Ferrum_machine.Machine
module Predecode = Ferrum_machine.Predecode
module Flight = Ferrum_machine.Flight
module Json = Ferrum_telemetry.Json
module Metrics = Ferrum_telemetry.Metrics
module Profile = Ferrum_telemetry.Profile
module F = Ferrum_faultsim.Faultsim

let originals = List.map Instr.original

let straightline body =
  Prog.program
    [ Prog.func "main" [ Prog.block "main" (originals (body @ [ Instr.Ret ])) ] ]

(* A tiny protected-looking program with one original injection site, a
   duplicate and a checker -- same shape as the faultsim tests use, so
   campaigns over it are instant. *)
let checked_program () =
  Prog.program
    [ Prog.func "main"
        [ Prog.block "main"
            [ Instr.original (Instr.Mov (Reg.Q, Instr.Imm 7L, Instr.Reg Reg.RDI));
              Instr.dup (Instr.Mov (Reg.Q, Instr.Imm 7L, Instr.Reg Reg.R10));
              Instr.check (Instr.Cmp (Reg.Q, Instr.Reg Reg.R10, Instr.Reg Reg.RDI));
              Instr.check (Instr.Jcc (Cond.NE, "exit_function"));
              Instr.original (Instr.Call "print_i64");
              Instr.original Instr.Ret ] ] ]

(* ---- flight recorder ---- *)

let test_flight_wraparound () =
  let open Instr in
  let body =
    List.init 8 (fun i ->
        Mov (Reg.Q, Imm (Int64.of_int i), Reg Reg.RAX))
  in
  let img = Machine.load (straightline body) in
  let fr = Flight.create ~depth:4 () in
  let st = Machine.fresh_state img in
  let outcome = Predecode.run ~on_step:(Flight.observe fr img) img st in
  (match outcome with
  | Machine.Exit _ -> ()
  | o -> Alcotest.failf "expected exit, got %a" Machine.pp_outcome o);
  (* 8 movs + ret all retire; the ring holds only the last 4 *)
  Alcotest.(check int) "recorded" 9 (Flight.recorded fr);
  let entries = Flight.entries fr in
  Alcotest.(check int) "held" 4 (List.length entries);
  let steps = List.map (fun e -> e.Flight.step) entries in
  Alcotest.(check (list int)) "last four steps, oldest first" [ 6; 7; 8; 9 ]
    steps;
  (* the last mov's write-back value is visible in its entry *)
  let mov7 = List.nth entries 2 in
  (match mov7.Flight.writes with
  | [ Flight.Wgpr (Reg.RAX, v) ] ->
    Alcotest.(check int64) "write-back value" 7L v
  | _ -> Alcotest.fail "expected a single gpr write");
  Flight.clear fr;
  Alcotest.(check int) "cleared" 0 (Flight.recorded fr);
  Alcotest.(check int) "empty" 0 (List.length (Flight.entries fr))

let test_flight_no_wrap () =
  let open Instr in
  let body = [ Mov (Reg.Q, Imm 1L, Reg Reg.RBX) ] in
  let img = Machine.load (straightline body) in
  let fr = Flight.create ~depth:16 () in
  let st = Machine.fresh_state img in
  ignore (Predecode.run ~on_step:(Flight.observe fr img) img st);
  Alcotest.(check int) "recorded" 2 (Flight.recorded fr);
  Alcotest.(check int) "held" 2 (List.length (Flight.entries fr));
  match Flight.create ~depth:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "depth 0 must be rejected"

(* ---- canonical JSON ---- *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [ ("schema", Json.Str "t.v1");
        ("n", Json.Int (-3));
        ("x", Json.Float 2.5);
        ("whole", Json.Float 4.0);
        ("ok", Json.Bool true);
        ("none", Json.Null);
        ("xs", Json.Arr [ Json.Int 1; Json.Str "a\"b\n" ]) ]
  in
  let s = Json.to_string v in
  Alcotest.(check string) "reparse is canonical" s
    (Json.to_string (Json.of_string s));
  (* integral floats keep a decimal point so the field stays a float *)
  Alcotest.(check bool) "whole float rendered with point" true
    (let re = "\"whole\":4.0" in
     let rec find i =
       i + String.length re <= String.length s
       && (String.sub s i (String.length re) = re || find (i + 1))
     in
     find 0);
  match Json.of_string_opt "{\"truncated\":" with
  | None -> ()
  | Some _ -> Alcotest.fail "malformed JSON must not parse"

(* The buffer renderers must keep printing numbers as the formats they
   replace: [string_of_int] for an int, ["%.1f"] for an integral float
   below 1e15 and ["%.12g"] for every other float. *)
let reference_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.12g" f

let edge_ints = [ 0; 1; -1; 9; 10; -10; 99; 100; min_int; max_int;
                  min_int + 1; max_int - 1 ]

let edge_floats =
  [ 0.0; -0.0; 1.0; -1.0; 0.5; -2.5; 4.0; 1e15; -1e15;
    Float.pred 1e15; Float.succ 1e15; Float.pred (-1e15);
    Float.succ (-1e15); 1e15 -. 1.0; -.(1e15 -. 1.0); 1e15 +. 1.0;
    -.(1e15 +. 1.0); 999999999999999.0; 4503599627370496.0;
    Float.nan; -.Float.nan; Float.infinity; Float.neg_infinity;
    Float.max_float; -.Float.max_float; Float.min_float; epsilon_float;
    Float.of_int max_int; Float.of_int min_int; 1e-7; 123456789.125 ]

let render add v =
  let buf = Buffer.create 8 in
  Buffer.add_string buf "x";
  add buf v;
  Buffer.contents buf

let prop_add_int =
  QCheck.Test.make ~name:"add_int = string_of_int" ~count:2000
    QCheck.(oneof [ int; oneofl edge_ints; map (fun i -> i mod 100_000) int ])
    (fun i -> render Json.add_int i = "x" ^ string_of_int i)

let prop_add_float =
  QCheck.Test.make ~name:"add_float = %.1f / %.12g" ~count:2000
    QCheck.(
      oneof
        [ float; oneofl edge_floats;
          (* integral values on both sides of the 1e15 cut-off *)
          map (fun i -> Float.of_int (i mod 2_000_000_000_000_000)) int;
          map (fun i -> Float.of_int (i mod 1_000_000) /. 8.0) int ])
    (fun f ->
      let want = reference_float f in
      Json.float_repr f = want
      && render Json.add_float f = "x" ^ want
      && Json.to_string (Json.Float f) = want)

(* ---- metrics records: schema round-trip ---- *)

let prepare_checked () = F.prepare (Machine.load (checked_program ()))

let collect_records ~seed ~samples =
  (Campaign_ref.run ~seed ~samples (prepare_checked ())).Campaign_ref.records

let test_record_schema_roundtrip () =
  let records = collect_records ~seed:11L ~samples:25 in
  Alcotest.(check int) "one record per sample" 25 (List.length records);
  List.iteri
    (fun i r ->
      Alcotest.(check int) "sample numbering" i r.F.sample;
      let j = F.record_to_json r in
      (match Metrics.validate_fields F.record_fields j with
      | Ok () -> ()
      | Error e -> Alcotest.failf "record %d invalid: %s" i e);
      let s = Json.to_string j in
      Alcotest.(check string) "record canonical round-trip" s
        (Json.to_string (Json.of_string s)))
    records;
  let lines =
    Json.to_string
      (Metrics.header ~kind:F.metrics_kind [ ("benchmark", Json.Str "tiny") ])
    :: List.map (fun r -> Json.to_string (F.record_to_json r)) records
  in
  match
    Metrics.validate_lines ~kind:F.metrics_kind ~record_fields:F.record_fields
      lines
  with
  | Ok n -> Alcotest.(check int) "validated record count" 25 n
  | Error e -> Alcotest.failf "document invalid: %s" e

let test_validate_rejects () =
  let good =
    Json.to_string
      (Metrics.header ~kind:F.metrics_kind [])
  in
  (* wrong schema kind *)
  (match
     Metrics.validate_lines ~kind:"other.v1" ~record_fields:F.record_fields
       [ good ]
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "kind mismatch must be rejected");
  (* record with a missing required field *)
  match
    Metrics.validate_lines ~kind:F.metrics_kind ~record_fields:F.record_fields
      [ good; "{\"sample\":0}" ]
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "incomplete record must be rejected"

(* ---- same-seed campaigns are byte-identical ---- *)

let campaign_bytes ~seed =
  let buf = Buffer.create 1024 in
  let sink = Metrics.buffer_sink buf in
  List.iter
    (fun r -> Metrics.emit sink (F.record_to_json r))
    (collect_records ~seed ~samples:40);
  Metrics.close sink;
  Buffer.contents buf

let test_same_seed_identical () =
  let a = campaign_bytes ~seed:2024L in
  let b = campaign_bytes ~seed:2024L in
  Alcotest.(check string) "same seed, same bytes" a b;
  Alcotest.(check bool) "stream is non-trivial" true
    (String.length a > 40 * 20)

(* ---- profiles ---- *)

let test_profile_determinism () =
  let img = Machine.load (checked_program ()) in
  let p1 = Profile.run img in
  let p2 = Profile.run img in
  Alcotest.(check bool) "exits" true
    (match p1.Profile.outcome with Machine.Exit _ -> true | _ -> false);
  Alcotest.(check int) "steps stable" p1.Profile.steps p2.Profile.steps;
  Alcotest.(check (float 1e-9)) "cycles stable" p1.Profile.total_cycles
    p2.Profile.total_cycles;
  let row_sum =
    List.fold_left (fun acc r -> acc +. r.Profile.cycles) 0.0 p1.Profile.rows
  in
  Alcotest.(check (float 1e-6)) "rows account for all cycles"
    p1.Profile.total_cycles row_sum;
  let prov_sum =
    List.fold_left
      (fun acc r -> acc +. r.Profile.p_cycles)
      0.0 p1.Profile.by_provenance
  in
  Alcotest.(check (float 1e-6)) "provenance accounts for all cycles"
    p1.Profile.total_cycles prov_sum;
  let golden = Predecode.golden img in
  Alcotest.(check (float 1e-6)) "matches golden cycles" golden.Predecode.cycles
    p1.Profile.total_cycles;
  (* both dup and check cycles are attributed in the protected program *)
  let prov p =
    List.exists (fun r -> r.Profile.prov = p && r.Profile.p_count > 0)
      p1.Profile.by_provenance
  in
  Alcotest.(check bool) "dup attributed" true (prov Instr.Dup);
  Alcotest.(check bool) "check attributed" true (prov Instr.Check)

let test_mnemonic () =
  let open Instr in
  Alcotest.(check string) "mov" "mov"
    (mnemonic (Mov (Reg.Q, Imm 0L, Reg Reg.RAX)));
  Alcotest.(check string) "jcc keeps condition" "jne"
    (mnemonic (Jcc (Cond.NE, "x")));
  Alcotest.(check string) "ret" "ret" (mnemonic Ret)

(* ---- equal_outcome regression (satellite a) ---- *)

let test_equal_outcome_lengths () =
  (* used to raise Invalid_argument via List.for_all2 *)
  Alcotest.(check bool) "different lengths differ" false
    (Machine.equal_outcome (Machine.Exit [ 1L ]) (Machine.Exit [ 1L; 2L ]));
  Alcotest.(check bool) "equal outputs equal" true
    (Machine.equal_outcome (Machine.Exit [ 1L; 2L ]) (Machine.Exit [ 1L; 2L ]));
  Alcotest.(check bool) "differing value" false
    (Machine.equal_outcome (Machine.Exit [ 1L ]) (Machine.Exit [ 2L ]))

let () =
  Alcotest.run "telemetry"
    [
      ( "flight",
        [ Alcotest.test_case "ring wraparound" `Quick test_flight_wraparound;
          Alcotest.test_case "no wrap + bad depth" `Quick test_flight_no_wrap ] );
      ( "json",
        [ Alcotest.test_case "canonical round-trip" `Quick test_json_roundtrip;
          QCheck_alcotest.to_alcotest prop_add_int;
          QCheck_alcotest.to_alcotest prop_add_float ] );
      ( "metrics",
        [ Alcotest.test_case "record schema round-trip" `Quick
            test_record_schema_roundtrip;
          Alcotest.test_case "validation rejects bad input" `Quick
            test_validate_rejects;
          Alcotest.test_case "same seed, identical bytes" `Quick
            test_same_seed_identical ] );
      ( "profile",
        [ Alcotest.test_case "deterministic attribution" `Quick
            test_profile_determinism;
          Alcotest.test_case "mnemonics" `Quick test_mnemonic ] );
      ( "machine",
        [ Alcotest.test_case "equal_outcome length safety" `Quick
            test_equal_outcome_lengths ] );
    ]
