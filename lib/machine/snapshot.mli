(** Golden-run checkpoints for fast fault injection.

    A {!cache} is built once per target during its golden execution by
    capturing the architectural state every [interval] dynamic
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

(** {1 Capture}

    A golden run is walked once; a {!recorder} rides along and captures
    a checkpoint every [interval] retired instructions on the walking
    state itself, recording how many eligible write-backs retired
    before each one so {!restore} can translate an injection's dynamic
    index into a resume point. *)

type recorder

(** [recorder ?interval img st] records checkpoints of the run about to
    execute on [st], a fresh state of [img]; it turns on [st]'s
    dirty-page tracking.  [None] captures nothing: the cache
    degenerates to a pristine image usable for pooled scratch runs.

    @raise Invalid_argument if [interval < 1]. *)
val recorder : ?interval:int -> Machine.image -> Machine.state -> recorder

(** Call after every retired instruction with the number of eligible
    write-backs retired so far (that instruction included); captures
    when the step count reaches the next multiple of [interval]. *)
val record : recorder -> seen:int -> unit

(** The finished cache of a walk that ended after [steps] retired
    instructions.  Captures at or past [steps] are dropped: the
    observer fires on the halting instruction too, and a halted state
    is never resumed. *)
val finish : recorder -> steps:int -> cache

(** Walk the golden run of [img] with a {!recorder} ([None] = no
    checkpoints and no walk).  [counted idx] says whether the retired
    instruction at static index [idx] is an eligible write-back.  The
    walk stops at halt, trap, control leaving the code array, or
    {!Machine.default_fuel} steps.

    @raise Invalid_argument if [interval < 1]. *)
val build : ?interval:int -> counted:(int -> bool) -> Machine.image -> cache

(** Number of checkpoints captured. *)
val ckpt_count : cache -> int

(** One captured checkpoint: the architectural state after [c_steps]
    retired instructions, with memory as the pages dirtied since the
    previous checkpoint.  Read-only; for inspection and tests. *)
type ckpt = private {
  c_gpr : Machine.regfile;
  c_simd : Machine.regfile;
  c_zf : bool;
  c_sf : bool;
  c_cf : bool;
  c_off : bool;
  c_ip : int;
  c_cycles : float;
  c_steps : int;
  c_out_rev : int64 list;
  c_seen : int;  (** eligible write-backs retired before this point *)
  c_pages : int array;  (** pages dirtied since the previous one, sorted *)
  c_data : Bytes.t;  (** [c_pages.(i)]'s contents at [i * page_size] *)
}

(** Checkpoint [c], [0 <= c < ckpt_count cache]. *)
val ckpt : cache -> int -> ckpt

(** Step count of checkpoint [c], [0 <= c < ckpt_count cache]. *)
val ckpt_steps : cache -> int -> int

(** Index of the first checkpoint captured after more than [steps]
    retired instructions; [ckpt_count cache] when there is none. *)
val next_ckpt : cache -> steps:int -> int

(** A pooled state bound to [cache], initially pristine. *)
val make_slot : cache -> slot

(** The slot's state.  Valid until the next [restore]/[reset]. *)
val state : slot -> Machine.state

(** The latest checkpoint at or before the [dyn_index]-th eligible
    write-back; [-1] (the pristine start) when there is none. *)
val select : cache -> dyn_index:int -> int

(** The checkpoint the slot was last restored to ([-1] = pristine). *)
val at : slot -> int

(** [restore_to sl c]: restore the slot to checkpoint [c] ([-1] =
    pristine) and return that checkpoint's eligible-write-back count (0
    at the pristine start). *)
val restore_to : slot -> int -> int

(** [restore_to sl (select cache ~dyn_index)]. *)
val restore : slot -> dyn_index:int -> int

(** Restore the slot to the pristine start-of-program state. *)
val reset : slot -> unit

(** Make [dst]'s state bit-identical to [src]'s by copying registers
    and the pages [src] has dirtied.  Both slots must have been
    restored to the same checkpoint, with [dst] not executed since. *)
val sync : src:slot -> slot -> unit

(** [copy ~src dst]: restore [dst] to [src]'s checkpoint, then {!sync}
    it, so its state is bit-identical to [src]'s.  [src] must only have
    executed since its own restore. *)
val copy : src:slot -> slot -> unit

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
