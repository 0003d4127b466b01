(* Typed campaign event stream: `ferrum.events.v1`.

   One flat JSON object per event so the stream validates with the same
   field machinery as every other metrics schema.  Events carry a
   deterministic logical clock (cumulative simulated steps), never
   wall-clock time, so an event log is byte-reproducible per seed — the
   smoke check diffs two runs of the same campaign. *)

let kind = "ferrum.events.v1"

(* ------------------------------------------------------------------ *)
(* Outcome tallies.                                                    *)
(* ------------------------------------------------------------------ *)

type tally = {
  benign : int;
  sdc : int;
  detected : int;
  crash : int;
  timeout : int;
}

let zero_tally = { benign = 0; sdc = 0; detected = 0; crash = 0; timeout = 0 }

let tally_total t = t.benign + t.sdc + t.detected + t.crash + t.timeout

let tally_add a b =
  {
    benign = a.benign + b.benign;
    sdc = a.sdc + b.sdc;
    detected = a.detected + b.detected;
    crash = a.crash + b.crash;
    timeout = a.timeout + b.timeout;
  }

(* ------------------------------------------------------------------ *)
(* Events.                                                             *)
(* ------------------------------------------------------------------ *)

type body =
  | Campaign_started of { shards : int; samples : int }
  | Shard_started of { lo : int; hi : int }
  | Progress of {
      done_ : int;
      total : int;
      tally : tally;
      clock : int;
      spent : int;
      budget : int;
      hw : float;
    }
  | Shard_finished of { done_ : int; total : int; tally : tally; clock : int }
  | Shard_retry of { reason : string }
  | Campaign_finished of { total : int; tally : tally; clock : int }

type t = { seq : int; shard : int; attempt : int; body : body }

let body_name = function
  | Campaign_started _ -> "campaign_started"
  | Shard_started _ -> "shard_started"
  | Progress _ -> "progress"
  | Shard_finished _ -> "shard_finished"
  | Shard_retry _ -> "shard_retry"
  | Campaign_finished _ -> "campaign_finished"

(* ETA on the logical clock: clock units still to run, extrapolated
   from the per-sample rate so far.  Deterministic by construction.

   Clamped: a shard that finishes (or heartbeats) within one interval
   can report done_ = 0 or clock = 0 — a zero observed rate.  Rather
   than claim nothing remains, assume at least one clock unit per
   remaining sample; and once nothing remains the ETA is exactly 0
   even if the rate is degenerate. *)
let eta ~done_ ~total ~clock =
  let remaining = max 0 (total - done_) in
  if remaining = 0 then 0.
  else if done_ <= 0 || clock <= 0 then float_of_int remaining
  else float_of_int clock /. float_of_int done_ *. float_of_int remaining

(* Every event serializes every field (unused scalars as -1, unused
   tallies as 0, unused detail as ""): a flat, fixed schema keeps
   `ferrum metrics` validation a single required-field list. *)
let to_json (e : t) : Json.t =
  let shards, samples =
    match e.body with
    | Campaign_started { shards; samples } -> (shards, samples)
    | _ -> (-1, -1)
  in
  let lo, hi =
    match e.body with Shard_started { lo; hi } -> (lo, hi) | _ -> (-1, -1)
  in
  let done_, total, tally, clock =
    match e.body with
    | Progress { done_; total; tally; clock; _ }
    | Shard_finished { done_; total; tally; clock } ->
      (done_, total, tally, clock)
    | Campaign_finished { total; tally; clock } -> (total, total, tally, clock)
    | Campaign_started _ | Shard_started _ | Shard_retry _ ->
      (-1, -1, zero_tally, 0)
  in
  let detail = match e.body with Shard_retry { reason } -> reason | _ -> "" in
  let eta_v =
    match e.body with
    | Progress _ -> eta ~done_ ~total ~clock
    | _ -> 0.
  in
  (* Confidence heartbeat: global budget spent/total and the live
     Wilson half-width of the SDC estimate.  Adaptive campaigns run
     rounds, so a shard's own (done, total) no longer bounds campaign
     progress — watch/dashboard bars key off these instead. *)
  let spent, budget, hw =
    match e.body with
    | Progress { spent; budget; hw; _ } -> (spent, budget, hw)
    | _ -> (-1, -1, 0.)
  in
  Json.Obj
    [
      ("event", Json.Str (body_name e.body));
      ("seq", Json.Int e.seq);
      ("shard", Json.Int e.shard);
      ("attempt", Json.Int e.attempt);
      ("shards", Json.Int shards);
      ("samples", Json.Int samples);
      ("lo", Json.Int lo);
      ("hi", Json.Int hi);
      ("done", Json.Int done_);
      ("total", Json.Int total);
      ("benign", Json.Int tally.benign);
      ("sdc", Json.Int tally.sdc);
      ("detected", Json.Int tally.detected);
      ("crash", Json.Int tally.crash);
      ("timeout", Json.Int tally.timeout);
      ("clock", Json.Int clock);
      ("eta", Json.Float eta_v);
      ("detail", Json.Str detail);
      ("spent", Json.Int spent);
      ("budget", Json.Int budget);
      ("hw", Json.Float hw);
    ]

(* The confidence fields arrived after v1 logs existed; stored logs
   without them still parse (and validate) with the unused defaults. *)
let opt_int_member ~default name j =
  match Json.member name j with
  | Some (Json.Int v) -> Ok v
  | Some _ -> Error (Fmt.str "field %S is not an int" name)
  | None -> Ok default

let opt_float_member ~default name j =
  match Json.member name j with
  | Some (Json.Float v) -> Ok v
  | Some (Json.Int v) -> Ok (float_of_int v)
  | Some _ -> Error (Fmt.str "field %S is not a number" name)
  | None -> Ok default

let ( let* ) = Result.bind

let tally_of_json j =
  let* benign = Json.int "benign" j in
  let* sdc = Json.int "sdc" j in
  let* detected = Json.int "detected" j in
  let* crash = Json.int "crash" j in
  let* timeout = Json.int "timeout" j in
  Ok { benign; sdc; detected; crash; timeout }

let of_json (j : Json.t) : (t, string) result =
  let* name = Json.str "event" j in
  let* seq = Json.int "seq" j in
  let* shard = Json.int "shard" j in
  let* attempt = Json.int "attempt" j in
  let progresslike j =
    let* done_ = Json.int "done" j in
    let* total = Json.int "total" j in
    let* tally = tally_of_json j in
    let* clock = Json.int "clock" j in
    Ok (done_, total, tally, clock)
  in
  let* body =
    match name with
    | "campaign_started" ->
      let* shards = Json.int "shards" j in
      let* samples = Json.int "samples" j in
      Ok (Campaign_started { shards; samples })
    | "shard_started" ->
      let* lo = Json.int "lo" j in
      let* hi = Json.int "hi" j in
      Ok (Shard_started { lo; hi })
    | "progress" ->
      let* done_, total, tally, clock = progresslike j in
      let* spent = opt_int_member ~default:(-1) "spent" j in
      let* budget = opt_int_member ~default:(-1) "budget" j in
      let* hw = opt_float_member ~default:0. "hw" j in
      Ok (Progress { done_; total; tally; clock; spent; budget; hw })
    | "shard_finished" ->
      let* done_, total, tally, clock = progresslike j in
      Ok (Shard_finished { done_; total; tally; clock })
    | "shard_retry" ->
      let* reason = Json.str "detail" j in
      Ok (Shard_retry { reason })
    | "campaign_finished" ->
      let* _, total, tally, clock = progresslike j in
      Ok (Campaign_finished { total; tally; clock })
    | other -> Error (Fmt.str "unknown event %S" other)
  in
  Ok { seq; shard; attempt; body }

let of_string line =
  match Json.of_string_opt line with
  | None -> Error "not valid JSON"
  | Some j -> of_json j

(* ------------------------------------------------------------------ *)
(* Schema.                                                             *)
(* ------------------------------------------------------------------ *)

let fields =
  Metrics.
    [
      field "event" F_string;
      field "seq" F_int;
      field "shard" F_int;
      field "attempt" F_int;
      field "shards" F_int;
      field "samples" F_int;
      field "lo" F_int;
      field "hi" F_int;
      field "done" F_int;
      field "total" F_int;
      field "benign" F_int;
      field "sdc" F_int;
      field "detected" F_int;
      field "crash" F_int;
      field "timeout" F_int;
      field "clock" F_int;
      field "eta" F_float;
      field "detail" F_string;
      field ~required:false "spent" F_int;
      field ~required:false "budget" F_int;
      field ~required:false "hw" F_float;
    ]

let header extra = Metrics.header ~kind extra

(* ------------------------------------------------------------------ *)
(* Replay.                                                             *)
(* ------------------------------------------------------------------ *)

(* Re-derive the campaign outcome from its event log alone (record
   lines, header excluded) and cross-check the log's internal
   consistency: contiguous sequence numbers, campaign_started first,
   campaign_finished last, and per-shard final tallies summing to the
   campaign tally.  Returns the final (tally, clock). *)
let replay (lines : string list) : (tally * int, string) result =
  let n = List.length lines in
  let rec loop i seen_start shard_sum shard_clock final = function
    | [] -> (
      if not seen_start then Error "no campaign_started event"
      else
        match final with
        | None -> Error "no campaign_finished event"
        | Some (total, tally, clock) ->
          if tally <> shard_sum then
            Error "shard_finished tallies do not sum to the campaign tally"
          else if clock <> shard_clock then
            Error "shard_finished clocks do not sum to the campaign clock"
          else if total <> tally_total tally then
            Error "campaign_finished total does not match its tally"
          else Ok (tally, clock))
    | line :: rest -> (
      match of_string line with
      | Error e -> Error (Fmt.str "event %d: %s" i e)
      | Ok ev -> (
        if ev.seq <> i then
          Error (Fmt.str "event %d: sequence number %d, expected %d" i ev.seq i)
        else
          match ev.body with
          | Campaign_started _ ->
            if i <> 0 then Error (Fmt.str "event %d: campaign_started mid-log" i)
            else loop (i + 1) true shard_sum shard_clock final rest
          | Campaign_finished { total; tally; clock } ->
            if i <> n - 1 then
              Error (Fmt.str "event %d: campaign_finished mid-log" i)
            else
              loop (i + 1) seen_start shard_sum shard_clock
                (Some (total, tally, clock))
                rest
          | Shard_finished { tally; clock; _ } ->
            loop (i + 1) seen_start (tally_add shard_sum tally)
              (shard_clock + clock) final rest
          | Shard_started _ | Progress _ | Shard_retry _ ->
            if not seen_start then
              Error (Fmt.str "event %d precedes campaign_started" i)
            else loop (i + 1) seen_start shard_sum shard_clock final rest))
  in
  loop 0 false zero_tally 0 None lines
