(** Reference interpreter for differential tests of
    {!Ferrum_machine.Predecode}: one constructor match per retired
    instruction, no decoding. *)

open Ferrum_machine

(** Execute exactly one instruction and return the static index of the
    instruction that retired.  Raises {!Machine.Halt} when the program
    ends and {!Machine.Trap} on a machine fault.  Does not check that
    [state.ip] is within the code array — {!run} does that before each
    step. *)
val step : Machine.image -> Machine.state -> int

(** Run to halt, trap or fuel exhaustion (default
    {!Machine.default_fuel}).  [on_step] receives the state and the
    static index of the instruction that just retired; mutations it
    performs are visible to the next step.  Every retired instruction
    is observed, including the one that halts the machine. *)
val run :
  ?fuel:int ->
  ?on_step:(Machine.state -> int -> unit) ->
  Machine.image ->
  Machine.state ->
  Machine.outcome

(** The first architectural field where two states differ — GPRs, SIMD
    lanes, flags, ip, steps, the bits of [cycles], output, memory, then
    the dirty-page log — described for a test failure; [None] when they
    agree everywhere. *)
val diff_state : Machine.state -> Machine.state -> string option
