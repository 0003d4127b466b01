(** Execution flight recorder: a fixed-depth ring buffer of the last N
    retired instructions with their post-write-back destination values,
    fed by the simulator's [on_step] observer.  Dump it when a run ends
    in [Detected]/[Crash]/[Timeout] to see the instruction window that
    led to the event. *)

open Ferrum_asm

(** One written destination with its value right after write-back. *)
type write =
  | Wgpr of Reg.gpr * int64
  | Wsimd of Reg.simd * int * int64  (** register, lane, value *)
  | Wflags of bool * bool * bool * bool  (** ZF, SF, CF, OF *)

type entry = {
  step : int;  (** 1-based dynamic instruction number *)
  static_index : int;
  ins : Instr.ins;
  writes : write list;
}

type t

val default_depth : int

(** A recorder holding the last [depth] (default {!default_depth})
    entries.  Raises [Invalid_argument] on non-positive depths. *)
val create : ?depth:int -> unit -> t

(** Forget everything recorded so far. *)
val clear : t -> unit

(** Total entries ever recorded (≥ the number currently held). *)
val recorded : t -> int

(** The observer: pass as the simulator's [on_step] (or call from a
    composed observer). *)
val observe : t -> Machine.image -> Machine.state -> int -> unit

(** Entries currently held, oldest first; at most [depth]. *)
val entries : t -> entry list

(** The full window, oldest first, with a header stating how much
    history was dropped. *)
val pp : Format.formatter -> t -> unit
