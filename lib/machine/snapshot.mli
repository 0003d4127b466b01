(** Golden-run checkpoints for fast fault injection.

    A {!cache} is built once per target by walking the golden execution
    and capturing the architectural state every [interval] dynamic
    instructions; memory is stored as dirty-page deltas against the
    previous checkpoint (via {!Machine.track_writes}).  A {!slot} is a
    pooled {!Machine.state} that can be restored to the checkpoint
    nearest below any sampled injection index without allocating —
    restoration rewrites only the pages the previous run dirtied plus
    the delta pages between the two checkpoints.

    Restored states are bit-identical to running the same number of
    steps from a fresh state, which is what lets
    {!Ferrum_faultsim.Faultsim} guarantee checkpointed campaigns match
    the scratch path byte for byte. *)

type cache

type slot

(** Walk the golden run of [img], capturing a checkpoint every
    [interval] dynamic instructions ([None] = no checkpoints — the
    cache degenerates to a pristine image usable for pooled scratch
    runs).  [counted idx] says whether the retired instruction at
    static index [idx] is an eligible write-back; checkpoints record
    how many eligible write-backs retired before them so {!restore}
    can translate an injection's dynamic index into a resume point.
    The walk stops at halt, trap, or control leaving the code array.

    @raise Invalid_argument if [interval < 1]. *)
val build : ?interval:int -> counted:(int -> bool) -> Machine.image -> cache

(** Number of checkpoints captured. *)
val ckpt_count : cache -> int

(** Index of the latest checkpoint whose eligible-write-back count is
    [<= dyn_index]; [-1] when only the pristine start qualifies. *)
val select : cache -> dyn_index:int -> int

(** Step count of checkpoint [c], [0 <= c < ckpt_count cache]. *)
val ckpt_steps : cache -> int -> int

(** Index of the first checkpoint captured after more than [steps]
    retired instructions; [ckpt_count cache] when there is none. *)
val next_ckpt : cache -> steps:int -> int

(** A pooled state bound to [cache], initially pristine. *)
val make_slot : cache -> slot

(** The slot's state.  Valid until the next [restore]/[reset]. *)
val state : slot -> Machine.state

(** Restore the slot to the latest checkpoint at or before the
    [dyn_index]-th eligible write-back and return that checkpoint's
    eligible-write-back count (0 when restored to the pristine
    start). *)
val restore : slot -> dyn_index:int -> int

(** Restore the slot to the pristine start-of-program state. *)
val reset : slot -> unit

(** Make [dst]'s state bit-identical to [src]'s by copying registers
    and the pages [src] has dirtied.  Both slots must have been
    restored to the same checkpoint, with [dst] not executed since. *)
val sync : src:slot -> slot -> unit

(** [converged sl c]: is the slot's state bit-identical to golden
    checkpoint [c] — the fields {!restore} writes: steps, ip, the bits of
    cycles, flags, both register files, output and memory?  Cheapest
    first; memory compares only the pages that can differ (those the
    slot dirtied since its last restore and the golden deltas between
    its checkpoint and [c]), starting with the page that failed the
    slot's previous call.  Page contents decide, not dirty bits.  The
    machine is a deterministic function of exactly this state, so a
    converged run retires the rest of the golden run. *)
val converged : slot -> int -> bool
