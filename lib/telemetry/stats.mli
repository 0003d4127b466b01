(** Statistical confidence layer: exact streaming tallies, honest
    binomial interval estimators, and the [ferrum.stats.v1]
    convergence stream emitted alongside injection and
    vulnerability-map records.

    Campaign outcomes are Bernoulli trials; everything here is exact
    integer bookkeeping plus closed-form (Wilson) or posterior-quantile
    (Jeffreys) intervals, so merged shard statistics are byte-identical
    to sequential ones. *)

(** {1 Tallies} *)

(** Exact binomial tally: [n] trials, [k] hits.  Mergeable — the merge
    of per-shard tallies equals the tally of the concatenated sample
    stream, in any grouping (associative, commutative). *)
type tally = { n : int; k : int }

val zero : tally

(** [make ~n ~k] checks [0 <= k <= n] and raises [Invalid_argument]
    otherwise. *)
val make : n:int -> k:int -> tally

(** [add t hit] records one more trial. *)
val add : tally -> bool -> tally

val merge : tally -> tally -> tally

(** {1 Interval estimators} *)

type interval = { lo : float; hi : float }

val half_width : interval -> float

(** Wilson score interval at critical value [z] (default 1.96, i.e.
    95%).  Never degenerate: [n = 0] yields [[0, 1]], and [k = 0] or
    [k = n] still have nonzero width — unlike the normal approximation
    these replace. *)
val wilson : ?z:float -> tally -> interval

(** Jeffreys interval: equal-tailed [coverage] (default 0.95) credible
    interval of the Beta(k + ½, n − k + ½) posterior, with the
    standard endpoint convention (lower bound 0 at [k = 0], upper
    bound 1 at [k = n]). *)
val jeffreys : ?coverage:float -> tally -> interval

(** [betai a b x] is the regularized incomplete beta function
    I_x(a, b) — exposed for tests. *)
val betai : float -> float -> float -> float

(** {1 Schema: ferrum.stats.v1} *)

val kind : string

(** One flat record of the stats stream.  [row] is ["trace"] (a
    campaign-level convergence point), ["round"] (an adaptive round
    boundary), ["site"] (final per-static-site estimate) or
    ["campaign"] (the final aggregate).  [index] is the static site
    index for site rows, -1 otherwise.  [lo]/[hi]/[hw] are the Wilson
    bounds and half-width; [jlo]/[jhi] the Jeffreys bounds. *)
type row = {
  row : string;
  index : int;
  round : int;
  spent : int;
  budget : int;
  samples : int;
  sdc : int;
  p : float;
  lo : float;
  hi : float;
  hw : float;
  jlo : float;
  jhi : float;
}

val row_json : row -> Json.t
val row_of_string : string -> (row, string) result

(** Field specs for [Metrics.validate_lines]. *)
val fields : Metrics.field list

(** Header line for a stats JSONL document. *)
val header : (string * Json.t) list -> Json.t

(** {1 Convergence streams} *)

(** Folds classified samples in global campaign order: campaign-level
    convergence trace every [stride] samples, per-site tallies for the
    final listing, round boundaries for adaptive campaigns. *)
type stream

(** [create ?stride ~budget ()] — [stride] defaults to [budget/64]
    (at least 1). *)
val create : ?stride:int -> budget:int -> unit -> stream

(** [observe s ~site ~sdc] folds one classified sample; [site] is the
    static site index (negative when unknown). *)
val observe : stream -> site:int -> sdc:bool -> unit

(** Close an adaptive allocation round: emits a "round" row and
    increments the round counter. *)
val round_end : stream -> unit

val spent : stream -> int
val total : stream -> tally

(** All rows in canonical order: the chronological trace (trace and
    round rows), then site rows ascending by static index, then the
    final campaign row. *)
val rows : stream -> row list

(** [rows], serialized as canonical JSON lines. *)
val lines : stream -> string list
