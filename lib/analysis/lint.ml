open Ferrum_asm
module Json = Ferrum_telemetry.Json
module Metrics = Ferrum_telemetry.Metrics

type profile = Shadow.profile = {
  asm_dup : bool;
  pair_comparisons : bool;
  simd : bool;
}

let profile_unprotected =
  { asm_dup = false; pair_comparisons = false; simd = false }

(* IR-level EDDI leaves no assembly-level duplication invariants: its
   checks are ordinary lowered compares, so only the uncovered-set
   analysis applies. *)
let profile_ir_eddi = profile_unprotected
let profile_hybrid = { asm_dup = true; pair_comparisons = false; simd = false }
let profile_ferrum = { asm_dup = true; pair_comparisons = true; simd = true }

type site = {
  u_static_index : int;
  u_func : string;
  u_label : string;
  u_index : int;
  u_site : string;
}

type report = {
  r_findings : Shadow.finding list;
  r_uncovered : site list;
  r_eligible : int;
}

(* ------------------------------------------------------------------ *)
(* Flattening, mirroring Machine.load's layout exactly so static       *)
(* indices agree with the injector's.                                  *)
(* ------------------------------------------------------------------ *)

type link = L_none | L_target of int | L_call of int | L_detect | L_print

type flat = {
  code : Instr.ins array;
  links : link array;
  pos : (string * string * int) array;  (** func, label, k per index *)
  index_of : (string * int, int) Hashtbl.t;
  entry_range : int * int;
}

let flatten (p : Prog.t) : flat =
  let items = ref [] and n = ref 0 in
  let label_ix = Hashtbl.create 64 in
  let func_ix = Hashtbl.create 16 in
  let index_of = Hashtbl.create 256 in
  let entry_range = ref (0, 0) in
  List.iter
    (fun (f : Prog.func) ->
      let start = !n in
      Hashtbl.replace func_ix f.fname start;
      List.iter
        (fun (b : Prog.block) ->
          Hashtbl.replace label_ix b.label !n;
          List.iteri
            (fun k (i : Instr.ins) ->
              Hashtbl.replace index_of (b.label, k) !n;
              items := (i, f.fname, b.label, k) :: !items;
              incr n)
            b.insns)
        f.blocks;
      if String.equal f.fname p.entry then entry_range := (start, !n))
    p.funcs;
  let items = Array.of_list (List.rev !items) in
  let code = Array.map (fun (i, _, _, _) -> i) items in
  let pos = Array.map (fun (_, f, l, k) -> (f, l, k)) items in
  let resolve_label l =
    if String.equal l Prog.exit_function_label then L_detect
    else
      match Hashtbl.find_opt label_ix l with
      | Some i -> L_target i
      | None -> L_none
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
            | None -> L_none)
        | _ -> L_none)
      code
  in
  { code; links; pos; index_of; entry_range = !entry_range }

(* ------------------------------------------------------------------ *)
(* Check-free-path analysis (uncovered set).                           *)
(*                                                                     *)
(* Backward boolean fixpoint over the flattened program, with per-      *)
(* function summaries read off the entry index:                        *)
(*   E(i): a path from before i reaches `call print` or the entry      *)
(*         function's return with no Check-provenance instruction;     *)
(*   Q(i): a path from before i reaches this function's Ret with no    *)
(*         Check-provenance instruction (the "transparent callee"      *)
(*         summary).                                                   *)
(* Both start false and only ever grow, so the iteration converges to  *)
(* the least fixpoint even through recursion.                          *)
(* ------------------------------------------------------------------ *)

let uncovered (p : Prog.t) : site list * int =
  let fl = flatten p in
  let len = Array.length fl.code in
  let e = Array.make len false and q = Array.make len false in
  let s_entry, e_entry = fl.entry_range in
  let in_entry i = i >= s_entry && i < e_entry in
  let nxt arr i = if i + 1 < len then arr.(i + 1) else false in
  (* A non-entry Ret continues at every caller's return site, so its E
     joins the continuations of all call sites targeting this function
     (context-insensitive, hence an over-approximation). *)
  let fstart = Array.make len 0 in
  let starts = ref [] in
  Array.iteri
    (fun i (f, _, _) ->
      (match !starts with
      | (f', _) :: _ when String.equal f f' -> ()
      | _ -> starts := (f, i) :: !starts);
      fstart.(i) <- snd (List.hd !starts))
    fl.pos;
  let callers = Hashtbl.create 16 in
  Array.iteri
    (fun i link ->
      match link with
      | L_call t ->
        Hashtbl.replace callers t
          ((i + 1) :: Option.value ~default:[] (Hashtbl.find_opt callers t))
      | _ -> ())
    fl.links;
  let ret_e i =
    match Hashtbl.find_opt callers fstart.(i) with
    | None -> false
    | Some conts -> List.exists (fun c -> c < len && e.(c)) conts
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = len - 1 downto 0 do
      let ins = fl.code.(i) in
      let ev, qv =
        if ins.Instr.prov = Instr.Check then (false, false)
        else
          match (ins.op, fl.links.(i)) with
          | Instr.Jmp _, L_detect -> (false, false)
          | Instr.Jmp _, L_target t -> (e.(t), q.(t))
          | Instr.Jcc _, L_detect -> (nxt e i, nxt q i)
          | Instr.Jcc _, L_target t -> (e.(t) || nxt e i, q.(t) || nxt q i)
          | Instr.Ret, _ -> (in_entry i || ret_e i, true)
          | Instr.Call _, L_print -> (true, nxt q i)
          | Instr.Call _, L_detect -> (false, false)
          | Instr.Call _, L_call t ->
            (e.(t) || (q.(t) && nxt e i), q.(t) && nxt q i)
          | _ -> (nxt e i, nxt q i)
      in
      if ev <> e.(i) then begin
        e.(i) <- ev;
        changed := true
      end;
      if qv <> q.(i) then begin
        q.(i) <- qv;
        changed := true
      end
    done
  done;
  let sites = ref [] and eligible = ref 0 in
  for i = len - 1 downto 0 do
    let ins = fl.code.(i) in
    if ins.Instr.prov = Instr.Original && Instr.defs ins.op <> [] then begin
      incr eligible;
      if e.(i) then
        let fname, label, k = fl.pos.(i) in
        sites :=
          { u_static_index = i; u_func = fname; u_label = label;
            u_index = k; u_site = Printer.string_of_instr ins.op }
          :: !sites
    end
  done;
  (!sites, !eligible)

let run (profile : profile) (p : Prog.t) : report =
  let findings = Shadow.scan profile p in
  let sites, eligible = uncovered p in
  { r_findings = findings; r_uncovered = sites; r_eligible = eligible }

let count sev r =
  List.length
    (List.filter (fun (f : Shadow.finding) -> f.f_severity = sev) r.r_findings)

let errors r = count Shadow.Error r
let warnings r = count Shadow.Warning r

(* ------------------------------------------------------------------ *)
(* JSONL export.                                                       *)
(* ------------------------------------------------------------------ *)

let metrics_kind = "ferrum.lint.v1"

let record_fields =
  Metrics.
    [ field "kind" F_string; field "severity" F_string;
      field "func" F_string; field "label" F_string; field "index" F_int;
      field "static_index" F_int; field "site" F_string;
      field "message" F_string; field "hint" F_string ]

let rows (p : Prog.t) (r : report) : Json.t list =
  let fl = flatten p in
  let idx label k =
    Option.value ~default:(-1) (Hashtbl.find_opt fl.index_of (label, k))
  in
  let finding_row (f : Shadow.finding) =
    Json.Obj
      [ ("kind", Json.Str (Shadow.kind_name f.f_kind));
        ("severity", Json.Str (Shadow.severity_name f.f_severity));
        ("func", Json.Str f.f_func); ("label", Json.Str f.f_label);
        ("index", Json.Int f.f_index);
        ("static_index", Json.Int (idx f.f_label f.f_index));
        ("site", Json.Str f.f_site); ("message", Json.Str f.f_message);
        ("hint", Json.Str f.f_hint) ]
  in
  let site_row (s : site) =
    Json.Obj
      [ ("kind", Json.Str "uncovered-site"); ("severity", Json.Str "info");
        ("func", Json.Str s.u_func); ("label", Json.Str s.u_label);
        ("index", Json.Int s.u_index);
        ("static_index", Json.Int s.u_static_index);
        ("site", Json.Str s.u_site);
        ( "message",
          Json.Str
            "eligible site with a check-free path to an output or the \
             final return" );
        ("hint", Json.Str "") ]
  in
  List.map finding_row r.r_findings @ List.map site_row r.r_uncovered

let pp_report ppf (r : report) =
  let open Shadow in
  List.iter
    (fun (f : finding) ->
      Fmt.pf ppf "%-7s %s: %s:%s[%d]: %s@."
        (severity_name f.f_severity) (kind_name f.f_kind) f.f_func f.f_label
        f.f_index f.f_message;
      Fmt.pf ppf "        at `%s`; %s@." f.f_site f.f_hint)
    r.r_findings;
  Fmt.pf ppf
    "findings: %d error(s), %d warning(s), %d total; uncovered sites: \
     %d/%d eligible@."
    (errors r) (warnings r)
    (List.length r.r_findings)
    (List.length r.r_uncovered)
    r.r_eligible
