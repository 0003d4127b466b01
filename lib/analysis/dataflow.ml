open Ferrum_asm

type direction = Forward | Backward

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
    dir : direction;
    entry : D.fact array;  (** execution-order block-entry facts *)
    exit_ : D.fact array;  (** execution-order block-exit facts *)
  }

  (* Push a fact through a whole block in [dir] order. *)
  let through dir (insns : Instr.ins array) fact =
    let n = Array.length insns in
    let acc = ref fact in
    (match dir with
    | Forward -> for k = 0 to n - 1 do acc := D.transfer insns.(k) !acc done
    | Backward -> for k = n - 1 downto 0 do acc := D.transfer insns.(k) !acc done);
    !acc

  let solve dir (cfg : Cfg.t) =
    let n = Array.length cfg.blocks in
    (* [inp] is the fact at the edge where flow enters a block in the
       analysis direction: block entry for forward, block exit for
       backward.  [out] is the other side. *)
    let inp = Array.make n D.bottom in
    let out = Array.make n D.bottom in
    let order = Cfg.reverse_postorder cfg in
    let order =
      match dir with
      | Forward -> order
      | Backward ->
        let m = Array.length order in
        Array.init m (fun i -> order.(m - 1 - i))
    in
    let sources i =
      match dir with
      | Forward -> cfg.blocks.(i).Cfg.preds
      | Backward -> cfg.blocks.(i).Cfg.succs
    in
    let changed = ref true in
    while !changed do
      changed := false;
      Array.iter
        (fun i ->
          let j =
            List.fold_left (fun acc p -> D.join acc out.(p)) D.bottom (sources i)
          in
          inp.(i) <- j;
          let o = through dir cfg.blocks.(i).Cfg.insns j in
          if not (D.equal o out.(i)) then begin
            out.(i) <- o;
            changed := true
          end)
        order
    done;
    let entry, exit_ =
      match dir with Forward -> (inp, out) | Backward -> (out, inp)
    in
    { cfg; dir; entry; exit_ }

  let before t block k =
    let insns = t.cfg.Cfg.blocks.(block).Cfg.insns in
    match t.dir with
    | Forward ->
      let acc = ref t.entry.(block) in
      for i = 0 to k - 1 do acc := D.transfer insns.(i) !acc done;
      !acc
    | Backward ->
      let n = Array.length insns in
      let acc = ref t.exit_.(block) in
      for i = n - 1 downto k do acc := D.transfer insns.(i) !acc done;
      !acc
end
