(* Control-flow graph over assembly functions.

   Prog blocks are labelled extended blocks (protection transforms emit
   mid-block checker exits), so basic blocks are re-derived here:
   leaders are the first instruction of every labelled block and every
   instruction that follows a jump, conditional jump or return.  Edges
   are fall-through (to the next basic block in layout order, when the
   previous one does not end in a barrier) plus label targets; a jump
   to [exit_function] is a detector exit and produces no edge. *)

open Ferrum_asm

type block = {
  id : int;
  label : string;
  offset : int;
  insns : Instr.ins array;
  succs : int list;
  preds : int list;
}

type t = {
  func : Prog.func;
  blocks : block array;
  by_label : (string, int) Hashtbl.t;
}

let exit_l = Prog.exit_function_label

(* Split one Prog block into leader-delimited runs of instructions:
   a new run starts after every control transfer. *)
let runs_of_block (b : Prog.block) : (int * Instr.ins array) list =
  let insns = Array.of_list b.insns in
  let n = Array.length insns in
  let cuts = ref [] in
  for k = 0 to n - 1 do
    match insns.(k).Instr.op with
    | Instr.Jmp _ | Instr.Jcc _ | Instr.Ret when k + 1 < n ->
      cuts := (k + 1) :: !cuts
    | _ -> ()
  done;
  let starts = 0 :: List.rev !cuts in
  let rec slice = function
    | [] -> []
    | [ s ] -> [ (s, Array.sub insns s (n - s)) ]
    | s :: (s' :: _ as rest) -> (s, Array.sub insns s (s' - s)) :: slice rest
  in
  if n = 0 then [ (0, [||]) ] else slice starts

let build (f : Prog.func) : t =
  let by_label = Hashtbl.create 16 in
  let protos = ref [] in
  (* number the basic blocks in layout order *)
  let count = ref 0 in
  List.iter
    (fun (b : Prog.block) ->
      List.iteri
        (fun i (offset, insns) ->
          let id = !count in
          incr count;
          if i = 0 then Hashtbl.replace by_label b.label id;
          protos := (id, b.label, offset, insns) :: !protos)
        (runs_of_block b))
    f.blocks;
  let protos = Array.of_list (List.rev !protos) in
  let n = Array.length protos in
  let succs = Array.make n [] in
  let preds = Array.make n [] in
  let target l = if String.equal l exit_l then None else Hashtbl.find_opt by_label l in
  Array.iteri
    (fun i (_, _, _, (insns : Instr.ins array)) ->
      let m = Array.length insns in
      let fallthrough = if i + 1 < n then [ i + 1 ] else [] in
      let s =
        if m = 0 then fallthrough
        else
          match insns.(m - 1).Instr.op with
          | Instr.Ret -> []
          | Instr.Jmp l -> ( match target l with Some j -> [ j ] | None -> [])
          | Instr.Jcc (_, l) -> (
            match target l with
            | Some j -> fallthrough @ [ j ]
            | None -> fallthrough)
          | _ -> fallthrough
      in
      succs.(i) <- s)
    protos;
  Array.iteri (fun i s -> List.iter (fun j -> preds.(j) <- i :: preds.(j)) s) succs;
  let blocks =
    Array.mapi
      (fun i (id, label, offset, insns) ->
        assert (id = i);
        { id; label; offset; insns; succs = succs.(i);
          preds = List.rev preds.(i) })
      protos
  in
  { func = f; blocks; by_label }

let reverse_postorder (t : t) : int array =
  let n = Array.length t.blocks in
  let seen = Array.make n false in
  let post = ref [] in
  let rec dfs i =
    if not seen.(i) then begin
      seen.(i) <- true;
      List.iter dfs t.blocks.(i).succs;
      post := i :: !post
    end
  in
  if n > 0 then dfs 0;
  let reachable = !post in
  let rest = List.filter (fun i -> not seen.(i)) (List.init n Fun.id) in
  Array.of_list (reachable @ rest)

let position (t : t) id k =
  let b = t.blocks.(id) in
  (b.label, b.offset + k)
