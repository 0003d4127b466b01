(* x86 condition codes used by [set<cc>] and [j<cc>] instructions, together
   with their evaluation over the RFLAGS bits our machine models. *)

type t =
  | E   (* equal: ZF *)
  | NE  (* not equal: !ZF *)
  | L   (* signed less: SF <> OF *)
  | LE  (* signed less-or-equal: ZF || SF <> OF *)
  | G   (* signed greater: !ZF && SF = OF *)
  | GE  (* signed greater-or-equal: SF = OF *)
  | B   (* unsigned below: CF *)
  | BE  (* unsigned below-or-equal: CF || ZF *)
  | A   (* unsigned above: !CF && !ZF *)
  | AE  (* unsigned above-or-equal: !CF *)
  | S   (* sign: SF *)
  | NS  (* no sign: !SF *)

let all = [ E; NE; L; LE; G; GE; B; BE; A; AE; S; NS ]

let name = function
  | E -> "e" | NE -> "ne" | L -> "l" | LE -> "le" | G -> "g" | GE -> "ge"
  | B -> "b" | BE -> "be" | A -> "a" | AE -> "ae" | S -> "s" | NS -> "ns"

let of_name = function
  | "e" | "z" -> Some E
  | "ne" | "nz" -> Some NE
  | "l" -> Some L
  | "le" -> Some LE
  | "g" -> Some G
  | "ge" -> Some GE
  | "b" | "c" -> Some B
  | "be" -> Some BE
  | "a" -> Some A
  | "ae" | "nc" -> Some AE
  | "s" -> Some S
  | "ns" -> Some NS
  | _ -> None

(* Evaluate the condition against concrete flag values. *)
let eval t ~zf ~sf ~cf ~of_ =
  match t with
  | E -> zf
  | NE -> not zf
  | L -> sf <> of_
  | LE -> zf || sf <> of_
  | G -> (not zf) && sf = of_
  | GE -> sf = of_
  | B -> cf
  | BE -> cf || zf
  | A -> (not cf) && not zf
  | AE -> not cf
  | S -> sf
  | NS -> not sf

(* Which RFLAGS bits the condition reads; used by the fault injector to
   decide whether a flag fault can influence a later conditional. *)
type flag = ZF | SF | CF | OF

let reads = function
  | E | NE -> [ ZF ]
  | L | GE -> [ SF; OF ]
  | LE | G -> [ ZF; SF; OF ]
  | B | AE -> [ CF ]
  | BE | A -> [ CF; ZF ]
  | S | NS -> [ SF ]
