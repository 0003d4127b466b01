(* Assembly program structure: labelled basic blocks grouped into
   functions.  Control falls through from the end of one block to the
   next block in list order unless the last instruction is a barrier
   (unconditional jump or return), exactly as in real assembly text. *)

type block = { label : string; insns : Instr.ins list }

type func = { fname : string; blocks : block list }

type t = { funcs : func list; entry : string }

(* Label reached by checkers on a mismatch; the machine halts with
   outcome [Detected] when control is transferred here (paper listings
   use the same name). *)
let exit_function_label = "exit_function"

(* Builtin functions recognised by the machine (see Ferrum_machine):
   [print_i64] appends %rdi to the observable program output and
   [__ferrum_detect] halts with outcome [Detected]. *)
let builtin_print = "print_i64"
let builtin_detect = "__ferrum_detect"

let block label insns = { label; insns }

let func fname blocks = { fname; blocks }

let program ?(entry = "main") funcs = { funcs; entry }

(* Fold over every instruction in layout order — function order, then
   block order, then instruction order within the block.  This is the
   order the machine's loader assigns static indices in, so a visitor
   that counts calls reproduces each instruction's global index. *)
let fold_insns f acc (t : t) =
  List.fold_left
    (fun acc (fn : func) ->
      List.fold_left
        (fun acc (b : block) ->
          List.fold_left (fun acc i -> f acc fn b i) acc b.insns)
        acc fn.blocks)
    acc t.funcs

(* Static instruction count of a whole program (paper §IV-B3 correlates
   FERRUM's transform time with this number). *)
let num_instructions t = fold_insns (fun acc _ _ _ -> acc + 1) 0 t

let map_funcs fn t = { t with funcs = List.map fn t.funcs }

(* All block labels of a function, in layout order. *)
let labels_of_func f = List.map (fun b -> b.label) f.blocks

exception Ill_formed of string

let ill_formed fmt = Fmt.kstr (fun s -> raise (Ill_formed s)) fmt

(* Structural validation: unique labels, jump targets resolve to a label
   of the same function (or the reserved detector label), the last block
   of a function does not fall off the end, and scale factors are legal.
   Raises [Ill_formed] otherwise. *)
let validate (t : t) =
  let func_names = List.map (fun f -> f.fname) t.funcs in
  let module SS = Set.Make (String) in
  let name_set = SS.of_list func_names in
  if SS.cardinal name_set <> List.length func_names then
    ill_formed "duplicate function names";
  if not (SS.mem t.entry name_set) then ill_formed "entry %s undefined" t.entry;
  List.iter
    (fun f ->
      let labels = labels_of_func f in
      let label_set = SS.of_list labels in
      if SS.cardinal label_set <> List.length labels then
        ill_formed "%s: duplicate block labels" f.fname;
      let check_target l =
        if
          (not (SS.mem l label_set))
          && not (String.equal l exit_function_label)
        then ill_formed "%s: unknown jump target %s" f.fname l
      in
      let check_mem (m : Instr.mem) =
        match m.scale with
        | 1 | 2 | 4 | 8 -> ()
        | s -> ill_formed "%s: illegal scale %d" f.fname s
      in
      let check_ins (ins : Instr.ins) =
        List.iter check_target (Instr.targets ins.op);
        match ins.op with
        | Lea (m, _) -> check_mem m
        | Mov (_, a, b) | Alu (_, _, a, b) | Cmp (_, a, b) | Test (_, a, b)
          ->
          List.iter
            (function Instr.Mem m -> check_mem m | _ -> ())
            [ a; b ]
        | Call callee ->
          if
            (not (SS.mem callee name_set))
            && (not (String.equal callee builtin_print))
            && not (String.equal callee builtin_detect)
          then ill_formed "%s: call to unknown function %s" f.fname callee
        | _ -> ()
      in
      List.iter (fun b -> List.iter check_ins b.insns) f.blocks;
      match List.rev f.blocks with
      | [] -> ill_formed "%s: empty function" f.fname
      | last :: _ -> (
        match List.rev last.insns with
        | i :: _ when Instr.is_barrier i.op -> ()
        | _ -> ill_formed "%s: control falls off the end" f.fname))
    t.funcs

(* Provenance histogram, used in tests and reports. *)
let provenance_counts (t : t) =
  fold_insns
    (fun (orig, dups, checks, instr) _ _ (i : Instr.ins) ->
      match i.prov with
      | Instr.Original -> (orig + 1, dups, checks, instr)
      | Instr.Dup -> (orig, dups + 1, checks, instr)
      | Instr.Check -> (orig, dups, checks + 1, instr)
      | Instr.Instrumentation -> (orig, dups, checks, instr + 1))
    (0, 0, 0, 0) t
