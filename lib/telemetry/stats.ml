(* Statistical confidence layer: `ferrum.stats.v1`.

   Campaign numbers are binomial estimates, and the paper's flat-1000
   protocol never says how sure they are.  This module makes the
   uncertainty explicit: exact streaming tallies (mergeable, so shards
   can be combined in any grouping), Wilson and Jeffreys interval
   estimators that stay honest at p = 0, p = 1 and n = 0 where the
   normal approximation collapses to a zero-width interval, and a
   convergence stream (CI half-width vs. samples spent) serialized as
   a schema-versioned JSONL document alongside the injection and
   vulnerability-map records. *)

(* ------------------------------------------------------------------ *)
(* Tallies.                                                            *)
(* ------------------------------------------------------------------ *)

type tally = { n : int; k : int }

let zero = { n = 0; k = 0 }
let make ~n ~k =
  if n < 0 || k < 0 || k > n then invalid_arg "Stats.make: need 0 <= k <= n";
  { n; k }

let add t hit = { n = t.n + 1; k = (if hit then t.k + 1 else t.k) }
let merge a b = { n = a.n + b.n; k = a.k + b.k }
let p_hat t = if t.n = 0 then 0.0 else float_of_int t.k /. float_of_int t.n

(* ------------------------------------------------------------------ *)
(* Interval estimators.                                                *)
(* ------------------------------------------------------------------ *)

type interval = { lo : float; hi : float }

let half_width i = (i.hi -. i.lo) /. 2.0

(* Wilson score interval.  Unlike the Wald/normal approximation it
   never collapses: n = 0 is total ignorance ([0, 1]), and k = 0 or
   k = n still admit the probability mass the sample size cannot rule
   out. *)
let wilson ?(z = 1.96) t =
  if t.n = 0 then { lo = 0.0; hi = 1.0 }
  else begin
    let n = float_of_int t.n in
    let p = p_hat t in
    let z2 = z *. z in
    let denom = 1.0 +. (z2 /. n) in
    let center = (p +. (z2 /. (2.0 *. n))) /. denom in
    let margin =
      z /. denom
      *. sqrt ((p *. (1.0 -. p) /. n) +. (z2 /. (4.0 *. n *. n)))
    in
    { lo = Float.max 0.0 (center -. margin);
      hi = Float.min 1.0 (center +. margin) }
  end

(* Log-gamma (Lanczos, g = 7): enough precision for interval bounds
   rendered to a handful of decimals.  Beta posteriors only ever call
   it with positive arguments >= 1/2, so no reflection is needed. *)
let log_gamma x =
  let c =
    [| 676.5203681218851; -1259.1392167224028; 771.32342877765313;
       -176.61502916214059; 12.507343278686905; -0.13857109526572012;
       9.9843695780195716e-6; 1.5056327351493116e-7 |]
  in
  let x = x -. 1.0 in
  let a = ref 0.99999999999980993 in
  Array.iteri
    (fun i ci -> a := !a +. (ci /. (x +. float_of_int i +. 1.0)))
    c;
  let t = x +. 7.5 in
  (0.5 *. log (2.0 *. Float.pi)) +. (((x +. 0.5) *. log t) -. t) +. log !a

(* Continued fraction for the regularized incomplete beta function
   (modified Lentz), valid for x < (a+1)/(a+b+2). *)
let betacf a b x =
  let tiny = 1e-30 in
  let qab = a +. b and qap = a +. 1.0 and qam = a -. 1.0 in
  let c = ref 1.0 in
  let d = ref (1.0 -. (qab *. x /. qap)) in
  if Float.abs !d < tiny then d := tiny;
  d := 1.0 /. !d;
  let h = ref !d in
  (try
     for m = 1 to 200 do
       let fm = float_of_int m in
       let m2 = 2.0 *. fm in
       let aa = fm *. (b -. fm) *. x /. ((qam +. m2) *. (a +. m2)) in
       d := 1.0 +. (aa *. !d);
       if Float.abs !d < tiny then d := tiny;
       c := 1.0 +. (aa /. !c);
       if Float.abs !c < tiny then c := tiny;
       d := 1.0 /. !d;
       h := !h *. !d *. !c;
       let aa =
         -.(a +. fm) *. (qab +. fm) *. x /. ((a +. m2) *. (qap +. m2))
       in
       d := 1.0 +. (aa *. !d);
       if Float.abs !d < tiny then d := tiny;
       c := 1.0 +. (aa /. !c);
       if Float.abs !c < tiny then c := tiny;
       d := 1.0 /. !d;
       let del = !d *. !c in
       h := !h *. del;
       if Float.abs (del -. 1.0) < 1e-12 then raise Exit
     done
   with Exit -> ());
  !h

(* Regularized incomplete beta I_x(a, b). *)
let betai a b x =
  if x <= 0.0 then 0.0
  else if x >= 1.0 then 1.0
  else begin
    let lbeta =
      log_gamma (a +. b) -. log_gamma a -. log_gamma b
      +. (a *. log x) +. (b *. log (1.0 -. x))
    in
    let front = exp lbeta in
    if x < (a +. 1.0) /. (a +. b +. 2.0) then front *. betacf a b x /. a
    else 1.0 -. (front *. betacf b a (1.0 -. x) /. b)
  end

(* Quantile of Beta(a, b) by bisection on the (monotone) CDF. *)
let beta_quantile a b q =
  if q <= 0.0 then 0.0
  else if q >= 1.0 then 1.0
  else begin
    let lo = ref 0.0 and hi = ref 1.0 in
    for _ = 1 to 60 do
      let mid = 0.5 *. (!lo +. !hi) in
      if betai a b mid < q then lo := mid else hi := mid
    done;
    0.5 *. (!lo +. !hi)
  end

(* Jeffreys interval: equal-tailed credible interval of the
   Beta(k + 1/2, n - k + 1/2) posterior, with the standard endpoint
   convention (lower bound 0 when k = 0, upper bound 1 when k = n). *)
let jeffreys ?(coverage = 0.95) t =
  if t.n = 0 then { lo = 0.0; hi = 1.0 }
  else begin
    let a = float_of_int t.k +. 0.5 in
    let b = float_of_int (t.n - t.k) +. 0.5 in
    let tail = (1.0 -. coverage) /. 2.0 in
    let lo = if t.k = 0 then 0.0 else beta_quantile a b tail in
    let hi = if t.k = t.n then 1.0 else beta_quantile a b (1.0 -. tail) in
    { lo; hi }
  end

(* ------------------------------------------------------------------ *)
(* Schema: ferrum.stats.v1.                                            *)
(* ------------------------------------------------------------------ *)

let kind = "ferrum.stats.v1"

(* Every row serializes every field, like the event schema: "trace"
   rows are convergence points of the campaign-level SDC estimate,
   "round" rows close an adaptive allocation round, "site" rows are
   the final per-static-site estimates, and the single "campaign" row
   is the final aggregate.  Unused scalars are -1. *)
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

let row_json (r : row) : Json.t =
  Json.Obj
    [
      ("row", Json.Str r.row);
      ("index", Json.Int r.index);
      ("round", Json.Int r.round);
      ("spent", Json.Int r.spent);
      ("budget", Json.Int r.budget);
      ("samples", Json.Int r.samples);
      ("sdc", Json.Int r.sdc);
      ("p", Json.Float r.p);
      ("lo", Json.Float r.lo);
      ("hi", Json.Float r.hi);
      ("hw", Json.Float r.hw);
      ("jlo", Json.Float r.jlo);
      ("jhi", Json.Float r.jhi);
    ]

let ( let* ) = Result.bind

let row_of_json (j : Json.t) : (row, string) result =
  let* row =
    match Json.member "row" j with
    | Some (Json.Str v) -> Ok v
    | Some _ -> Error "field \"row\" is not a string"
    | None -> Error "missing field \"row\""
  in
  let* index = Json.int "index" j in
  let* round = Json.int "round" j in
  let* spent = Json.int "spent" j in
  let* budget = Json.int "budget" j in
  let* samples = Json.int "samples" j in
  let* sdc = Json.int "sdc" j in
  let* p = Json.float "p" j in
  let* lo = Json.float "lo" j in
  let* hi = Json.float "hi" j in
  let* hw = Json.float "hw" j in
  let* jlo = Json.float "jlo" j in
  let* jhi = Json.float "jhi" j in
  Ok { row; index; round; spent; budget; samples; sdc; p; lo; hi; hw; jlo; jhi }

let row_of_string line =
  match Json.of_string_opt line with
  | None -> Error "not valid JSON"
  | Some j -> row_of_json j

let fields =
  Metrics.
    [
      field "row" F_string;
      field "index" F_int;
      field "round" F_int;
      field "spent" F_int;
      field "budget" F_int;
      field "samples" F_int;
      field "sdc" F_int;
      field "p" F_float;
      field "lo" F_float;
      field "hi" F_float;
      field "hw" F_float;
      field "jlo" F_float;
      field "jhi" F_float;
    ]

let header extra = Metrics.header ~kind extra

(* ------------------------------------------------------------------ *)
(* Convergence streams.                                                *)
(* ------------------------------------------------------------------ *)

(* A stream folds classified samples in campaign order and records the
   campaign-level SDC estimate every [stride] samples — the
   convergence trace the dashboard plots as CI bands — plus per-site
   tallies for the final listing rows.  Observation order is the
   global sample order, so a stream built from merged shard output is
   byte-identical to the sequential one. *)
type stream = {
  stride : int;
  s_budget : int;
  mutable s_round : int;
  mutable s_spent : int;
  mutable total : tally;
  sites : (int, tally) Hashtbl.t;
  mutable rev_trace : row list;
  jeffreys_memo : (tally, interval) Hashtbl.t; (* per tally of a row *)
}

let create ?stride ~budget () =
  let stride =
    match stride with Some s -> max 1 s | None -> max 1 (budget / 64)
  in
  {
    stride;
    s_budget = budget;
    s_round = 0;
    s_spent = 0;
    total = zero;
    sites = Hashtbl.create 64;
    rev_trace = [];
    jeffreys_memo = Hashtbl.create 64;
  }

(* Row [row] of [s] for the tally [t].  Each Jeffreys interval costs
   ~120 [betai] evaluations and a campaign's site rows repeat the same
   few small tallies, so a stream memoizes the intervals of its rows. *)
let row_of s ~row ~index t =
  let w = wilson t in
  let j =
    match Hashtbl.find_opt s.jeffreys_memo t with
    | Some j -> j
    | None ->
      let j = jeffreys t in
      Hashtbl.add s.jeffreys_memo t j;
      j
  in
  {
    row;
    index;
    round = s.s_round;
    spent = s.s_spent;
    budget = s.s_budget;
    samples = t.n;
    sdc = t.k;
    p = p_hat t;
    lo = w.lo;
    hi = w.hi;
    hw = half_width w;
    jlo = j.lo;
    jhi = j.hi;
  }

let observe s ~site ~sdc =
  s.total <- add s.total sdc;
  if site >= 0 then begin
    let t = Option.value ~default:zero (Hashtbl.find_opt s.sites site) in
    Hashtbl.replace s.sites site (add t sdc)
  end;
  s.s_spent <- s.s_spent + 1;
  if s.s_spent mod s.stride = 0 || s.s_spent = s.s_budget then
    s.rev_trace <-
      row_of s ~row:"trace" ~index:(-1) s.total
      :: s.rev_trace

let round_end s =
  s.rev_trace <-
    row_of s ~row:"round" ~index:(-1) s.total
    :: s.rev_trace;
  s.s_round <- s.s_round + 1

let spent s = s.s_spent
let total s = s.total

let rows s =
  let site_rows =
    Hashtbl.fold (fun site t acc -> (site, t) :: acc) s.sites []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.map (fun (site, t) -> row_of s ~row:"site" ~index:site t)
  in
  List.rev s.rev_trace
  @ site_rows
  @ [ row_of s ~row:"campaign" ~index:(-1) s.total ]

let lines s = List.map (fun r -> Json.to_string (row_json r)) (rows s)
