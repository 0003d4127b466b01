(* Per-opcode cycle profiling.

   Runs an image once with an observer that attributes every retired
   instruction's model cycles to (a) its bare mnemonic and (b) its
   provenance.  The mnemonic table answers "where do the cycles go?"
   (the hot-instruction view behind the ROADMAP's make-a-hot-path-faster
   goal); the provenance split breaks a protected program's overhead
   into original / duplicate / check / instrumentation (requisition
   push-pop and batch plumbing) cycles — the decomposition the paper's
   Fig. 11 discussion reasons about. *)

open Ferrum_asm
module Machine = Ferrum_machine.Machine
module Predecode = Ferrum_machine.Predecode

type row = {
  mnemonic : string;
  klass : Instr.klass;
  count : int;
  cycles : float;
}

type prov_row = { prov : Instr.provenance; p_count : int; p_cycles : float }

type t = {
  outcome : Machine.outcome;
  steps : int;
  total_cycles : float;
  rows : row list; (* cycles descending, then mnemonic *)
  by_provenance : prov_row list; (* Original, Dup, Check, Instrumentation *)
}

let provenances =
  [ Instr.Original; Instr.Dup; Instr.Check; Instr.Instrumentation ]

let prov_name = function
  | Instr.Original -> "original"
  | Instr.Dup -> "duplicate"
  | Instr.Check -> "check"
  | Instr.Instrumentation -> "instrumentation"

let prov_index = function
  | Instr.Original -> 0
  | Instr.Dup -> 1
  | Instr.Check -> 2
  | Instr.Instrumentation -> 3

(* Profile one fresh run of [img].  Deterministic: the simulator and the
   cost model are, and rows come out in a total order. *)
let run ?fuel (img : Machine.image) : t =
  let tbl : (string, Instr.klass * int ref * float ref) Hashtbl.t =
    Hashtbl.create 64
  in
  let prov_count = Array.make 4 0 in
  let prov_cycles = Array.make 4 0.0 in
  let on_step (_st : Machine.state) idx =
    let ins = img.Machine.code.(idx) in
    let cost = img.Machine.costs.(idx) in
    let m = Instr.mnemonic ins.Instr.op in
    (match Hashtbl.find_opt tbl m with
    | Some (_, count, cycles) ->
      incr count;
      cycles := !cycles +. cost
    | None -> Hashtbl.add tbl m (Instr.klass ins.Instr.op, ref 1, ref cost));
    let p = prov_index ins.Instr.prov in
    prov_count.(p) <- prov_count.(p) + 1;
    prov_cycles.(p) <- prov_cycles.(p) +. cost
  in
  let outcome, st = Machine.run_fresh ?fuel ~on_step img in
  let rows =
    Hashtbl.fold
      (fun mnemonic (klass, count, cycles) acc ->
        { mnemonic; klass; count = !count; cycles = !cycles } :: acc)
      tbl []
    |> List.sort (fun a b ->
           match compare b.cycles a.cycles with
           | 0 -> compare a.mnemonic b.mnemonic
           | c -> c)
  in
  let by_provenance =
    List.map
      (fun prov ->
        let i = prov_index prov in
        { prov; p_count = prov_count.(i); p_cycles = prov_cycles.(i) })
      provenances
  in
  {
    outcome;
    steps = st.Machine.steps;
    total_cycles = st.Machine.cycles;
    rows;
    by_provenance;
  }

(* ---- Predecoded-dispatch statistics ----

   How much of the program the threaded dispatcher covers: static fused
   pair sites, the share of a golden run's steps the unobserved fast
   path retires, and a dynamic histogram of which superinstruction
   patterns actually fire (static pair counts overweight cold code). *)

type dispatch = {
  d_sites : int; (* static code length *)
  d_fused_sites : int; (* static fused pair sites *)
  d_steps : int; (* golden-run dynamic steps *)
  d_fast_steps : int; (* steps retired by the unobserved fast path *)
  d_fused_steps : int; (* steps retired inside fused superinstructions *)
  d_patterns : (string * int) list; (* dynamic pairs fired, descending *)
}

let dispatch ?fuel (img : Machine.image) : dispatch =
  let d = Predecode.get img in
  Predecode.reset_counters ();
  let st = Machine.fresh_state img in
  ignore (Predecode.exec ?fuel d st);
  let fast = Predecode.fast_steps () and fused = Predecode.fused_steps () in
  (* Dynamic pattern histogram: replay observed and pair retirements the
     way the fused dispatcher does — a pair fires when control enters a
     fused head and the second half retires right after it. *)
  let tbl : (string, int ref) Hashtbl.t = Hashtbl.create 16 in
  let pending = ref (-1) in
  let on_step (_ : Machine.state) idx =
    if !pending >= 0 && idx = !pending + 1 then begin
      let name = Predecode.fused_name d !pending in
      (match Hashtbl.find_opt tbl name with
      | Some r -> incr r
      | None -> Hashtbl.add tbl name (ref 1));
      pending := -1
    end
    else if idx < Predecode.length d && Predecode.is_fused_start d idx then
      pending := idx
    else pending := -1
  in
  ignore (Machine.run ?fuel ~on_step img (Machine.fresh_state img));
  let patterns =
    Hashtbl.fold (fun name r acc -> (name, !r) :: acc) tbl []
    |> List.sort (fun (n1, c1) (n2, c2) ->
           match compare c2 c1 with 0 -> compare n1 n2 | c -> c)
  in
  {
    d_sites = Predecode.length d;
    d_fused_sites = Predecode.fused_pairs d;
    d_steps = st.Machine.steps;
    d_fast_steps = fast;
    d_fused_steps = fused;
    d_patterns = patterns;
  }

let pct part total = if total <= 0.0 then 0.0 else 100.0 *. part /. total

let ipct a b = pct (float_of_int a) (float_of_int b)

let dispatch_to_json dp =
  Json.Obj
    [
      ("sites", Json.Int dp.d_sites);
      ("fused_sites", Json.Int dp.d_fused_sites);
      ("steps", Json.Int dp.d_steps);
      ("fast_steps", Json.Int dp.d_fast_steps);
      ("fused_steps", Json.Int dp.d_fused_steps);
      ("fused_boundary_pct",
       Json.Float (ipct dp.d_fused_sites (max 1 (dp.d_sites - 1))));
      ("fast_path_pct", Json.Float (ipct dp.d_fast_steps dp.d_steps));
      ("fused_steps_pct", Json.Float (ipct dp.d_fused_steps dp.d_steps));
      ("patterns",
       Json.Arr
         (List.map
            (fun (n, c) ->
              Json.Obj [ ("name", Json.Str n); ("pairs", Json.Int c) ])
            dp.d_patterns));
    ]

let pp_dispatch ppf dp =
  Fmt.pf ppf
    "predecoded dispatch: %d of %d instruction boundaries fused (%.1f%%)@."
    dp.d_fused_sites (max 1 (dp.d_sites - 1))
    (ipct dp.d_fused_sites (max 1 (dp.d_sites - 1)));
  Fmt.pf ppf
    "  fast path retired %d/%d steps (%.1f%%), %.1f%% in superinstructions@."
    dp.d_fast_steps dp.d_steps
    (ipct dp.d_fast_steps dp.d_steps)
    (ipct dp.d_fused_steps dp.d_steps);
  if dp.d_patterns <> [] then begin
    Fmt.pf ppf "  %-16s %10s %7s@." "superinstruction" "pairs" "steps%";
    List.iter
      (fun (n, c) ->
        Fmt.pf ppf "  %-16s %10d %6.1f%%@." n c (ipct (2 * c) dp.d_steps))
      dp.d_patterns
  end

(* Canonical JSON view: outcome/steps/cycles, the full hot-opcode table
   and the provenance overhead split.  Field order is fixed so the
   rendering is byte-stable for a given image. *)
let to_json t =
  let row_json r =
    Json.Obj
      [
        ("mnemonic", Json.Str r.mnemonic);
        ("class", Json.Str (Instr.klass_name r.klass));
        ("count", Json.Int r.count);
        ("cycles", Json.Float r.cycles);
        ("cycles_pct", Json.Float (pct r.cycles t.total_cycles));
      ]
  in
  let prov_json p =
    Json.Obj
      [
        ("provenance", Json.Str (prov_name p.prov));
        ("count", Json.Int p.p_count);
        ("cycles", Json.Float p.p_cycles);
        ("cycles_pct", Json.Float (pct p.p_cycles t.total_cycles));
      ]
  in
  Json.Obj
    [
      ("outcome", Json.Str (Fmt.str "%a" Machine.pp_outcome t.outcome));
      ("steps", Json.Int t.steps);
      ("total_cycles", Json.Float t.total_cycles);
      ("opcodes", Json.Arr (List.map row_json t.rows));
      ("by_provenance", Json.Arr (List.map prov_json t.by_provenance));
    ]

let pp ?(top = 0) ppf t =
  Fmt.pf ppf "%a: %d instructions, %.1f model cycles@." Machine.pp_outcome
    t.outcome t.steps t.total_cycles;
  Fmt.pf ppf "  %-14s %-8s %10s %12s %7s@." "opcode" "class" "count" "cycles"
    "cyc%";
  let rows =
    if top > 0 && List.length t.rows > top then
      List.filteri (fun i _ -> i < top) t.rows
    else t.rows
  in
  List.iter
    (fun r ->
      Fmt.pf ppf "  %-14s %-8s %10d %12.1f %6.1f%%@." r.mnemonic
        (Instr.klass_name r.klass) r.count r.cycles
        (pct r.cycles t.total_cycles))
    rows;
  if List.length t.rows > List.length rows then
    Fmt.pf ppf "  ... %d more opcodes@." (List.length t.rows - List.length rows)

let pp_provenance ppf t =
  Fmt.pf ppf "  %-16s %10s %12s %7s@." "provenance" "count" "cycles" "cyc%";
  List.iter
    (fun p ->
      if p.p_count > 0 then
        Fmt.pf ppf "  %-16s %10d %12.1f %6.1f%%@." (prov_name p.prov)
          p.p_count p.p_cycles
          (pct p.p_cycles t.total_cycles))
    t.by_provenance
