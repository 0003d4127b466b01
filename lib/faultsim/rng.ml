(* Deterministic splitmix64 PRNG.  All randomness in fault-injection
   campaigns flows through one of these, seeded explicitly, so every
   experiment in EXPERIMENTS.md is reproducible bit-for-bit.

   The state is eight bytes read and written as one int64: unlike a
   [mutable] int64 record field, which boxes every update, a draw then
   allocates nothing. *)

type t = Bytes.t

let[@inline] create ~seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 seed;
  t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] next_int64 t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  mix s

(* Uniform integer in [0, bound). *)
let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound <= 0"
  else
    (* keep 62 bits so the value fits OCaml's 63-bit native int *)
    let v = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
    v mod bound

(* Derive an independent stream, for per-sample reproducibility. *)
let split t = create ~seed:(next_int64 t)

(* The n-th (0-based) split of a fresh generator, derived directly: a
   splitmix state only ever advances by [golden_gamma] per draw, so the
   root's state at its (n+1)-th draw is [seed + (n+1)*gamma] regardless
   of what happened in between.  This is what lets a campaign shard
   start mid-stream: sample k's generator is a pure function of the
   campaign seed and k, never of the samples before it. *)
let split_at ~seed n =
  if n < 0 then invalid_arg "Rng.split_at: negative index";
  create
    ~seed:
      (mix (Int64.add seed (Int64.mul (Int64.of_int (n + 1)) golden_gamma)))
