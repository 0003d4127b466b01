(* Golden-run checkpoints for fast fault injection.

   One golden walk per target captures the architectural state every
   [interval] dynamic instructions.  Registers, flags and scalars are
   copied outright (~1.2 KB); memory is captured as a *delta* — only the
   pages dirtied since the previous checkpoint, courtesy of the
   dirty-page log in {!Machine} — so a checkpoint costs proportional to
   the write working set, not the 1 MiB address space.

   Restoration is likewise incremental.  A {!slot} owns one pooled
   state; moving it from checkpoint [a] to checkpoint [c] rewrites only
   (1) pages the previous injection run dirtied and (2) pages whose
   canonical content differs between [a] and [c] (the union of the
   deltas strictly between them).  A per-page version index finds the
   latest checkpoint ≤ [c] holding each page in O(log #checkpoints); a
   generation-stamped dedup ensures each page is written at most once
   per restore.  No per-sample allocation occurs anywhere on this
   path.

   The same reasoning bounds the comparison of a running slot with a
   later golden checkpoint ({!converged}): only the pages the slot has
   dirtied and the deltas between its checkpoint and the target can
   differ, so a suffix can be checked against the golden run at every
   checkpoint boundary for the price of a register compare. *)

let page_bits = Machine.page_bits

let page_size = Machine.page_size

type ckpt = {
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
  c_seen : int;
      (* eligible write-backs retired strictly before this point *)
  c_pages : int array; (* pages dirtied since the previous ckpt, sorted *)
  c_data : Bytes.t; (* c_pages.(i)'s contents at offset i * page_size *)
}

type cache = {
  img : Machine.image;
  pristine : Machine.state; (* never executed; checkpoint "-1" *)
  ckpts : ckpt array;
  versions : int array array;
      (* per page: ascending ckpt indices whose delta holds that page *)
  n_pages : int;
}

(* The last page may be short when [mem_size] is not a page multiple. *)
let page_len cache p =
  min page_size (cache.img.Machine.mem_size - (p lsl page_bits))

let capture (st : Machine.state) ~seen =
  let tr = Option.get st.Machine.track in
  let n = tr.Machine.tr_count in
  let pages = Array.sub tr.Machine.tr_pages 0 n in
  Array.sort compare pages;
  let mem_size = Bytes.length st.Machine.mem in
  let data = Bytes.create (n * page_size) in
  for i = 0 to n - 1 do
    let p = pages.(i) in
    let off = p lsl page_bits in
    let len = min page_size (mem_size - off) in
    Bytes.blit st.Machine.mem off data (i * page_size) len
  done;
  Machine.clear_dirty st;
  {
    c_gpr = Machine.copy_regfile st.Machine.gpr;
    c_simd = Machine.copy_regfile st.Machine.simd;
    c_zf = st.Machine.zf;
    c_sf = st.Machine.sf;
    c_cf = st.Machine.cf;
    c_off = st.Machine.off;
    c_ip = st.Machine.ip;
    c_cycles = st.Machine.cycles;
    c_steps = st.Machine.steps;
    c_out_rev = st.Machine.out_rev;
    c_seen = seen;
    c_pages = pages;
    c_data = data;
  }

exception Done

let build ?interval ~counted img =
  let n_pages = (img.Machine.mem_size + page_size - 1) lsr page_bits in
  let pristine = Machine.fresh_state img in
  let ckpts =
    match interval with
    | None -> [||]
    | Some k ->
      if k < 1 then invalid_arg "Snapshot.build: interval < 1";
      let st = Machine.fresh_state img in
      Machine.track_writes st;
      let pre = Predecode.get img in
      let acc = ref [] in
      let seen = ref 0 in
      let next = ref k in
      let len = Array.length img.Machine.code in
      (try
         while true do
           if st.Machine.ip < 0 || st.Machine.ip >= len then raise Done;
           if st.Machine.steps = !next then begin
             acc := capture st ~seen:!seen :: !acc;
             next := !next + k
           end;
           let idx = Predecode.step1 pre st in
           if counted idx then incr seen
         done
       with Machine.Halt _ | Machine.Trap _ | Done -> ());
      Array.of_list (List.rev !acc)
  in
  (* Per-page version index: ascending checkpoint indices whose delta
     carries the page. *)
  let counts = Array.make n_pages 0 in
  Array.iter
    (fun c -> Array.iter (fun p -> counts.(p) <- counts.(p) + 1) c.c_pages)
    ckpts;
  let versions = Array.map (fun n -> Array.make n 0) counts in
  let fill = Array.make n_pages 0 in
  Array.iteri
    (fun ci c ->
      Array.iter
        (fun p ->
          versions.(p).(fill.(p)) <- ci;
          fill.(p) <- fill.(p) + 1)
        c.c_pages)
    ckpts;
  { img; pristine; ckpts; versions; n_pages }

let ckpt_count cache = Array.length cache.ckpts

(* Greatest index [i] with [arr.(i) <= x]; -1 if none.  [arr] sorted. *)
let find_le arr x =
  let lo = ref 0 and hi = ref (Array.length arr) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if arr.(mid) <= x then lo := mid + 1 else hi := mid
  done;
  !lo - 1

(* Position of [x] in sorted [arr]; the caller guarantees presence. *)
let find_pos arr x =
  let i = find_le arr x in
  assert (i >= 0 && arr.(i) = x);
  i

(* Number of checkpoints with [key ck <= x]; [key] ascends over the
   checkpoint array. *)
let count_le cache key x =
  let ckpts = cache.ckpts in
  let lo = ref 0 and hi = ref (Array.length ckpts) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if key ckpts.(mid) <= x then lo := mid + 1 else hi := mid
  done;
  !lo

let select cache ~dyn_index = count_le cache (fun ck -> ck.c_seen) dyn_index - 1

let ckpt_steps cache c = cache.ckpts.(c).c_steps

let next_ckpt cache ~steps = count_le cache (fun ck -> ck.c_steps) steps

type slot = {
  cache : cache;
  st : Machine.state;
  mutable at : int; (* checkpoint the slot was last restored to; -1 = pristine *)
  stamp : int array; (* per page: generation of the last touch *)
  mutable gen : int;
  mutable miss : int; (* page that last failed {!converged}; -1 = none *)
}

let make_slot cache =
  let st = Machine.fresh_state cache.img in
  Machine.track_writes st;
  {
    cache;
    st;
    at = -1; (* a fresh state is bit-identical to [pristine] *)
    stamp = Array.make cache.n_pages 0;
    gen = 0;
    miss = -1;
  }

let state sl = sl.st

(* Checkpoint whose delta holds page [p]'s canonical contents at
   checkpoint [c]: the latest delta <= [c] carrying the page; -1 when
   the pristine image does. *)
let holder cache ~c p =
  if c < 0 then -1
  else
    let v = find_le cache.versions.(p) c in
    if v < 0 then -1 else cache.versions.(p).(v)

(* Write page [p]'s canonical contents at checkpoint [c] into the slot. *)
let load_page sl ~c p =
  let cache = sl.cache in
  let len = page_len cache p in
  let off = p lsl page_bits in
  match holder cache ~c p with
  | -1 -> Bytes.blit cache.pristine.Machine.mem off sl.st.Machine.mem off len
  | h ->
    let ck = cache.ckpts.(h) in
    Bytes.blit ck.c_data (find_pos ck.c_pages p * page_size) sl.st.Machine.mem
      off len

let load_regs sl c =
  let st = sl.st in
  if c < 0 then Machine.reset_regs ~from:sl.cache.pristine st
  else begin
    let ck = sl.cache.ckpts.(c) in
    Machine.blit_regfile ck.c_gpr st.Machine.gpr;
    Machine.blit_regfile ck.c_simd st.Machine.simd;
    st.Machine.zf <- ck.c_zf;
    st.Machine.sf <- ck.c_sf;
    st.Machine.cf <- ck.c_cf;
    st.Machine.off <- ck.c_off;
    st.Machine.ip <- ck.c_ip;
    st.Machine.cycles <- ck.c_cycles;
    st.Machine.steps <- ck.c_steps;
    st.Machine.out_rev <- ck.c_out_rev
  end

(* Visit, once each, every page whose contents can differ between the
   slot's state and golden checkpoint [c]: (1) pages the slot dirtied
   since its last restore and (2) the union of the golden deltas
   strictly after min(at, c) up to max(at, c) — symmetric, so both
   forward and backward moves work.  Every other page still holds the
   contents the slot was restored with, which equal checkpoint [c]'s. *)
let iter_candidates sl c f =
  sl.gen <- sl.gen + 1;
  let gen = sl.gen in
  let visit p =
    if sl.stamp.(p) <> gen then begin
      sl.stamp.(p) <- gen;
      f p
    end
  in
  (match sl.st.Machine.track with
  | None -> ()
  | Some tr ->
    for i = 0 to tr.Machine.tr_count - 1 do
      visit tr.Machine.tr_pages.(i)
    done);
  let lo = min sl.at c and hi = max sl.at c in
  for ci = lo + 1 to hi do
    Array.iter visit sl.cache.ckpts.(ci).c_pages
  done

let restore_to sl c =
  iter_candidates sl c (load_page sl ~c);
  Machine.clear_dirty sl.st;
  load_regs sl c;
  sl.at <- c

let reset sl = restore_to sl (-1)

let restore sl ~dyn_index =
  let c = select sl.cache ~dyn_index in
  restore_to sl c;
  if c < 0 then 0 else sl.cache.ckpts.(c).c_seen

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

external rget : Machine.regfile -> int -> int64 = "%caml_ba_unsafe_ref_1"

(* [a[ao, ao+len) = b[bo, bo+len)], eight bytes at a time. *)
let sub_equal a ao b bo len =
  let i = ref 0 in
  while !i + 8 <= len && (get64u a (ao + !i) : int64) = get64u b (bo + !i) do
    i := !i + 8
  done;
  while !i < len && Bytes.unsafe_get a (ao + !i) = Bytes.unsafe_get b (bo + !i)
  do
    incr i
  done;
  !i = len

let regfile_equal (a : Machine.regfile) (b : Machine.regfile) =
  let n = Bigarray.Array1.dim a in
  let i = ref 0 in
  while !i < n && (rget a !i : int64) = rget b !i do
    incr i
  done;
  !i = n

(* Output lists share their tails with the checkpoint the slot was
   restored from, so physical equality usually ends the walk early. *)
let rec out_equal a b =
  a == b
  ||
  match (a, b) with
  | x :: a', y :: b' -> Int64.equal x y && out_equal a' b'
  | _ -> false

(* Does page [p] of the slot hold its canonical contents at [c]? *)
let page_equal sl ~c p =
  let cache = sl.cache in
  let len = page_len cache p in
  let off = p lsl page_bits in
  match holder cache ~c p with
  | -1 -> sub_equal cache.pristine.Machine.mem off sl.st.Machine.mem off len
  | h ->
    let ck = cache.ckpts.(h) in
    sub_equal ck.c_data (find_pos ck.c_pages p * page_size) sl.st.Machine.mem
      off len

(* Memory half of {!converged}.  The page that failed last goes first: a
   run whose corruption sits in memory keeps failing on the same page,
   so it pays about one page compare per boundary. *)
let pages_equal sl c =
  (sl.miss < 0 || page_equal sl ~c sl.miss)
  &&
  match
    iter_candidates sl c (fun p ->
        if not (page_equal sl ~c p) then begin
          sl.miss <- p;
          raise_notrace Exit
        end)
  with
  | () -> true
  | exception Exit -> false

(* Cheapest first: scalars, then register files and output, then only
   the pages that can differ. *)
let converged sl c =
  let ck = sl.cache.ckpts.(c) in
  let st = sl.st in
  st.Machine.steps = ck.c_steps
  && st.Machine.ip = ck.c_ip
  && Int64.equal
       (Int64.bits_of_float st.Machine.cycles)
       (Int64.bits_of_float ck.c_cycles)
  && st.Machine.zf = ck.c_zf
  && st.Machine.sf = ck.c_sf
  && st.Machine.cf = ck.c_cf
  && st.Machine.off = ck.c_off
  && regfile_equal st.Machine.gpr ck.c_gpr
  && regfile_equal st.Machine.simd ck.c_simd
  && out_equal st.Machine.out_rev ck.c_out_rev
  && pages_equal sl c

(* Make [dst] bit-identical to [src].  Precondition: both slots were
   last restored to the same checkpoint, [dst] untouched since.  Only
   registers and the pages [src] has dirtied can differ; those pages are
   marked dirty in [dst] too, so its next restore repairs them. *)
let sync ~src dst =
  assert (src.at = dst.at);
  Machine.reset_regs ~from:src.st dst.st;
  match src.st.Machine.track with
  | None -> ()
  | Some tr ->
    let dtr = Option.get dst.st.Machine.track in
    let mem_size = Bytes.length src.st.Machine.mem in
    for i = 0 to tr.Machine.tr_count - 1 do
      let p = tr.Machine.tr_pages.(i) in
      let off = p lsl page_bits in
      let len = min page_size (mem_size - off) in
      Bytes.blit src.st.Machine.mem off dst.st.Machine.mem off len;
      Machine.mark_page dtr p
    done
