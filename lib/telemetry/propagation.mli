(** Fault-propagation tracing.

    Re-runs the golden (fault-free) execution in lockstep with a faulted
    run from inside the injector's per-step observer, and tracks the
    {e tainted set} — the GPRs, SIMD lanes, flag bits and memory bytes
    where the two architectural states differ — exactly at write-backs.
    Yields per-injection detection latency (retired instructions and
    model cycles from flip to checker) and, for silent data corruptions,
    a mechanical explanation of why the checkers missed.

    Driven by {!Ferrum_faultsim.Faultsim.trace_propagation}; the tracer
    itself only needs a loaded {!Ferrum_machine.Machine.image}, its
    decode and the observer/injection hooks. *)

open Ferrum_asm
module Machine = Ferrum_machine.Machine

(** A tainted architectural location. *)
type loc =
  | Lgpr of Reg.gpr
  | Lsimd of int * int  (** register, 64-bit lane *)
  | Lflag of Cond.flag
  | Lmem of int  (** byte address *)

(** The first write-back at which the two runs differed. *)
type divergence = {
  div_step : int;  (** dynamic instruction number *)
  div_static : int;  (** static index of the diverging instruction *)
  div_locs : loc list;
      (** locations that first differed, in write order; empty when the
          divergence was control flow only *)
}

(** {1 Tracing} *)

(** A lockstep tracer for the runs of one image.  Its per-instruction
    tables (written register slots, store addresses, checker and print
    marks) are built once by {!create}; its taint sets are dense — one
    bitset over the 16 GPRs, 128 SIMD lanes and 4 flags, one over the
    image's memory bytes, each with a count — and are reused by every
    run it traces, so a lockstep step allocates nothing. *)
type t

(** [create ~has_checks pre img]: a tracer for runs of [img] on [pre],
    a decode of [img] (the injected run's own, typically).
    [has_checks] is whether [img] carries a [Check]-provenance
    instruction, as {!summary}'s [program_has_checks]; the caller has
    it already, so the image is not scanned again. *)
val create :
  has_checks:bool -> Ferrum_machine.Predecode.t -> Machine.image -> t

(** Begin a run: clear the taint and the timeline, and step [golden]
    alongside it, the lockstep golden state.  A checkpointed injector
    passes a state already advanced to the flip site, since observing
    the identical pre-flip prefix records nothing.  Of the memory
    bitset, only the pages in which a bit was set are cleared. *)
val start : t -> golden:Machine.state -> unit

(** To be called right after the injector flips the bit(s) (see
    [?on_inject] of {!Ferrum_faultsim.Faultsim.inject_full}). *)
val note_injection : t -> Machine.state -> unit

(** The per-step observer: steps the golden machine in lockstep and
    updates the tainted set.  Pass as [?observe] to [inject_full].
    @raise Invalid_argument before {!start}. *)
val observe : t -> Machine.state -> int -> unit

(** Whether {!explain_escape} of the run's summary is already settled,
    whatever the run does next: the program has checkers, a checker
    has run since the first divergence, and either register taint was
    reactivated from memory or control flow has diverged.  The rule's
    counters only grow; [reactivated_at] is set only in lockstep; and
    the tests of [first_output_divergence_at] and [first_mem_taint_at]
    against the first check are settled once that check has run. *)
val decided : t -> bool

(** Raised by {!observe_escape}. *)
exception Decided

(** {!observe}, then raise {!Decided} once the run is {!decided}: the
    observer of a run traced only for its escape class, which stops it
    there. *)
val observe_escape : t -> Machine.state -> int -> unit

(** Steps the golden replica has taken beside this run: the run's
    steps observed in lockstep, each compared write by write.  After a
    control divergence the tracer only watches for checkers and output
    and the replica stands still. *)
val lockstep_steps : t -> int

(** {1 Summaries} *)

type summary = {
  program_has_checks : bool;
      (** any [Check]-provenance instruction in the image *)
  injected_at : int option;  (** retired-instruction number of the flip *)
  injected_cycles : float;
  first_divergence : divergence option;
      (** [None]: the flip never became architecturally visible *)
  control_diverged_at : int option;
      (** step at which the instruction pointers separated *)
  peak_taint : int;  (** max simultaneous tainted locations *)
  reg_taint_at_end : int;
  mem_taint_at_end : int;
  first_mem_taint_at : int option;
      (** taint first reached ECC-trusted memory *)
  first_output_divergence_at : int option;
      (** a corrupted (or wrong-path) value was printed *)
  first_check_after_divergence : int option;
  checks_after_divergence : int;
  tainted_checks : int;  (** checks retired while the taint was live *)
  masked_at : int option;
      (** register/flag/lane taint dropped to zero while memory taint
          remained *)
  reactivated_at : int option;
      (** register taint reappeared (reloaded from memory) after
          [masked_at] *)
  end_steps : int;
  end_cycles : float;
}

(** Freeze the tracer against the faulted run's final state. *)
val finish : t -> Machine.state -> summary

(** Retired instructions and model cycles from the flip to the end of
    the run; for a [Detected] run this is the detection latency.
    [None] when no fault was injected. *)
val detection_latency : summary -> (int * float) option

(** {1 Escape explanations}

    Why an SDC slipped past the checkers, derived from the propagation
    timeline. *)

type escape =
  | Unprotected_program  (** the image carries no checkers at all *)
  | Unchecked_site
      (** no checker executed between corruption and exit *)
  | Masked_then_reactivated
      (** register taint masked, survived in memory, reloaded later *)
  | Output_before_check
      (** corrupted output preceded the first post-corruption check *)
  | Memory_before_check
      (** taint was stored to trusted memory before the first check *)
  | Check_missed_taint
      (** checks ran over live taint but compared clean locations *)

val escape_name : escape -> string

(** Inverse of {!escape_name}; [None] on unknown names. *)
val escape_of_name : string -> escape option

(** One-sentence human explanation. *)
val escape_describe : escape -> string

val explain_escape : summary -> escape

val pp_summary : Format.formatter -> summary -> unit
