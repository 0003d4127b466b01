(** The simulator's instruction semantics: a decode-time closure
    compiler and the loops that run it.

    {!decode} lowers a {!Machine.image} once into one resolved-operand
    closure per static index, plus fused superinstructions for the
    hottest static pairs.  {!exec} runs them unobserved, {!exec_observed}
    hands every retired instruction to an observer, and {!step1} retires
    exactly one; all three give bit-identical steps, cycles, traps and
    timeouts.  A decode keeps no run state in it but {!fused_steps}
    (cycles accumulate in the state's own {!Machine.fcell}), so any
    number of states can run on one decode, one nested inside another's
    observer included. *)

(** A decoded program. *)
type t

(** Decode an image.  Fusion is bypassed wherever the second half of a
    pair is a join point or an [avoid] site ([avoid.(ip)] true), so a
    loop that stops at such a site never lands mid-pair. *)
val decode : ?avoid:bool array -> Machine.image -> t

(** {1 Static accessors} *)

(** Number of static instructions. *)
val length : t -> int

(** Number of fused pair starts. *)
val fused_pairs : t -> int

(** Static pair count per fusion pattern, in pattern-table order. *)
val pattern_counts : t -> (string * int) list

(** Pattern name when [ip] starts a fused pair, else [""]. *)
val fused_name : t -> int -> string

val is_fused_start : t -> int -> bool

(** True when [ip]'s instruction has a specialized thunk; false when it
    runs through the generic body (the shapes no fast arm covers). *)
val is_specialized : t -> int -> bool

(** {1 Execution loops} *)

(** The unobserved fast path: run until halt, trap or [fuel] total
    steps (default {!Machine.default_fuel}), with fused pairs. *)
val exec : ?fuel:int -> t -> Machine.state -> Machine.outcome

(** Steps that {!exec} has retired as fused pairs on this decode, over
    every run so far; a run's share is the delta across it. *)
val fused_steps : t -> int

(** One step, never fused; returns the retired static index.  Raises
    [Machine.Halt] when the program ends and [Machine.Trap] on a
    machine fault.  The caller checks [st.ip] bounds. *)
val step1 : t -> Machine.state -> int

(** The observed path: [on_step] receives the state and the static
    index of each retired instruction, including the halting one, and
    its mutations are visible to the next step.  Never fused. *)
val exec_observed :
  ?fuel:int ->
  on_step:(Machine.state -> int -> unit) ->
  t ->
  Machine.state ->
  Machine.outcome

(** {1 Whole-program runs}

    Each decodes the image it runs; a caller that runs an image more
    than once decodes it once with {!decode} and keeps the result. *)

(** {!exec} without an observer, {!exec_observed} with one. *)
val run :
  ?fuel:int ->
  ?on_step:(Machine.state -> int -> unit) ->
  Machine.image ->
  Machine.state ->
  Machine.outcome

(** {!run} from a fresh state; returns the outcome and the final state. *)
val run_fresh :
  ?fuel:int ->
  ?on_step:(Machine.state -> int -> unit) ->
  Machine.image ->
  Machine.outcome * Machine.state

(** Fault-free execution summary. *)
type golden = {
  outcome : Machine.outcome;
  dyn_instructions : int;
  cycles : float;
}

val golden : ?fuel:int -> Machine.image -> golden
