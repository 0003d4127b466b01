open Ferrum_asm

module type DOMAIN = sig
  type fact

  val bottom : fact
  val equal : fact -> fact -> bool
  val join : fact -> fact -> fact
  val transfer : Instr.ins -> fact -> fact
end

module Make (D : DOMAIN) = struct
  type t = {
    cfg : Cfg.t;
    exit_ : D.fact array;  (** execution-order block-exit facts *)
  }

  (* Push a fact backward through a whole block. *)
  let through (insns : Instr.ins array) fact =
    let acc = ref fact in
    for k = Array.length insns - 1 downto 0 do
      acc := D.transfer insns.(k) !acc
    done;
    !acc

  let solve (cfg : Cfg.t) =
    let n = Array.length cfg.blocks in
    (* [exit_] is the join over successors' entry facts; [entry] is the
       fact after pushing it back through the block. *)
    let exit_ = Array.make n D.bottom in
    let entry = Array.make n D.bottom in
    let rpo = Cfg.reverse_postorder cfg in
    let m = Array.length rpo in
    let order = Array.init m (fun i -> rpo.(m - 1 - i)) in
    let changed = ref true in
    while !changed do
      changed := false;
      Array.iter
        (fun i ->
          let j =
            List.fold_left
              (fun acc s -> D.join acc entry.(s))
              D.bottom cfg.blocks.(i).Cfg.succs
          in
          exit_.(i) <- j;
          let o = through cfg.blocks.(i).Cfg.insns j in
          if not (D.equal o entry.(i)) then begin
            entry.(i) <- o;
            changed := true
          end)
        order
    done;
    { cfg; exit_ }

  let before t block k =
    let insns = t.cfg.Cfg.blocks.(block).Cfg.insns in
    let acc = ref t.exit_.(block) in
    for i = Array.length insns - 1 downto k do
      acc := D.transfer insns.(i) !acc
    done;
    !acc
end
