(** x86 condition codes, as used by [set<cc>] and [j<cc>], and their
    evaluation over the RFLAGS bits the machine models (ZF, SF, CF,
    OF). *)

type t =
  | E  (** equal: ZF *)
  | NE  (** not equal: [not ZF] *)
  | L  (** signed less: SF <> OF *)
  | LE  (** signed less-or-equal *)
  | G  (** signed greater *)
  | GE  (** signed greater-or-equal *)
  | B  (** unsigned below: CF *)
  | BE  (** unsigned below-or-equal *)
  | A  (** unsigned above *)
  | AE  (** unsigned above-or-equal *)
  | S  (** sign set *)
  | NS  (** sign clear *)

(** Every condition code, for enumeration in tests. *)
val all : t list

(** Mnemonic suffix, e.g. [name LE = "le"]. *)
val name : t -> string

(** Parse a suffix; accepts the common aliases ("z", "nz", "c", "nc"). *)
val of_name : string -> t option

(** Evaluate the condition against concrete flag values. *)
val eval : t -> zf:bool -> sf:bool -> cf:bool -> of_:bool -> bool

(** The individual RFLAGS bits our machine models. *)
type flag = ZF | SF | CF | OF

(** Which flags a condition reads; used by the fault injector to decide
    whether a flag fault can influence a later conditional. *)
val reads : t -> flag list
