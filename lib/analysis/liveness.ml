open Ferrum_asm

module GSet = Set.Make (struct
  type t = Reg.gpr

  let compare = Reg.compare_gpr
end)

let reads ?(call_reads = Reg.all_gprs) (i : Instr.t) : GSet.t =
  let of_operand = function
    | Instr.Reg r -> [ r ]
    | Instr.Mem m -> Instr.gprs_of_mem m
    | Instr.Imm _ -> []
  in
  let addr_only = function
    | Instr.Mem m -> Instr.gprs_of_mem m
    | Instr.Reg _ | Instr.Imm _ -> []
  in
  let l =
    match i with
    | Instr.Mov (_, src, dst) -> of_operand src @ addr_only dst
    | Instr.Movslq (src, _) | Instr.Movzbq (src, _) -> of_operand src
    | Instr.Lea (m, _) -> Instr.gprs_of_mem m
    (* two-operand ALU and shifts read their destination too *)
    | Instr.Alu (_, _, src, dst) -> of_operand src @ of_operand dst
    | Instr.Shift (_, _, amt, dst) ->
      (match amt with Instr.Amt_cl -> [ Reg.RCX ] | Instr.Amt_imm _ -> [])
      @ of_operand dst
    | Instr.Neg (_, o) | Instr.Not (_, o) -> of_operand o
    | Instr.Cmp (_, a, b) | Instr.Test (_, a, b) -> of_operand a @ of_operand b
    | Instr.Set (_, dst) -> addr_only dst
    | Instr.Jmp _ | Instr.Jcc _ -> []
    | Instr.Call _ -> call_reads
    | Instr.Ret -> Reg.[ RAX; RSP; RBP ]
    | Instr.Push o -> Reg.RSP :: of_operand o
    | Instr.Pop _ -> [ Reg.RSP ]
    | Instr.Cqto -> [ Reg.RAX ]
    | Instr.Idiv (_, o) -> Reg.[ RAX; RDX ] @ of_operand o
    | Instr.MovQ_to_xmm (o, _) -> of_operand o
    | Instr.MovQ_from_xmm _ -> []
    | Instr.Pinsrq (_, s, _) -> Instr.gprs_of_pinsr_src s
    | Instr.Pextrq _ -> []
    | Instr.Vinserti128 _ | Instr.Vpxor _ | Instr.Vptest _
    | Instr.Vinserti64x4 _ | Instr.Vpxorq512 _ | Instr.Vptestmq512 _ -> []
  in
  GSet.of_list l

let writes (i : Instr.t) : GSet.t =
  let l =
    List.filter_map
      (function
        | Instr.Dgpr (r, (Reg.Q | Reg.D)) -> Some r
        | Instr.Dgpr (_, (Reg.B | Reg.W)) -> None
        | Instr.Dsimd _ | Instr.Dflags _ -> None)
      (Instr.defs i)
  in
  let l =
    match i with Instr.Push _ | Instr.Pop _ -> Reg.RSP :: l | _ -> l
  in
  GSet.of_list l

(* Live-in set before each (Prog block label, index). *)
type t = (string * int, GSet.t) Hashtbl.t

let analyze ?call_reads ?(keep = fun (_ : Instr.ins) -> true) (f : Prog.func) :
    t =
  let module D = struct
    type fact = GSet.t

    let bottom = GSet.empty
    let equal = GSet.equal
    let join = GSet.union

    let transfer (ins : Instr.ins) live =
      if keep ins then
        GSet.union (reads ?call_reads ins.op)
          (GSet.diff live (writes ins.op))
      else live
  end in
  let module E = Dataflow.Make (D) in
  let cfg = Cfg.build f in
  let sol = E.solve cfg in
  let live_in = Hashtbl.create 256 in
  Array.iteri
    (fun id (b : Cfg.block) ->
      Array.iteri
        (fun k _ ->
          let label, kk = Cfg.position cfg id k in
          Hashtbl.replace live_in (label, kk) (E.before sol id k))
        b.insns)
    cfg.blocks;
  live_in

let live_in_at t ~label ~k = Hashtbl.find_opt t (label, k)

let dead_at t ~label ~k r =
  match live_in_at t ~label ~k with
  | Some live -> not (GSet.mem r live)
  | None -> false
