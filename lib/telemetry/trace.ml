(* Distributed traces: `ferrum.trace.v1`.

   One campaign — CLI or daemon, fork-pool workers, engine phases —
   yields a single stitched trace: a set of spans, each with a unique
   id, a parent link, a name and a process label.  Span ids are
   deterministic dotted paths ("0", "0.2", "0.2.s5", ...) allocated
   hierarchically: a recorder numbers its children sequentially, and a
   process handing work to a child process mints the child's root span
   id under its own innermost span ({!ctx_for}), so forked workers
   create collision-free ids with no coordination.

   Dual clocks keep byte-reproducibility intact:

     - span rows carry only the *logical* clock (summed injected-run
       steps, advanced explicitly via {!advance}) and integer counters
       — deterministic for a given seed, so trace.jsonl byte-compares
       across reruns exactly like the injection stream;
     - wall rows (gettimeofday interval, CPU user/sys deltas from
       [Unix.times], peak RSS from /proc) are segregated into a
       sidecar document that identity tests never compare.

   Context crosses process boundaries two ways: by closure through
   [Unix.fork] (the campaign worker pool — the child serializes its
   closed spans back over the worker pipe and the parent {!absorb}s
   them), and by `traceparent`-style HTTP headers on the daemon API
   ({!to_traceparent} / {!of_traceparent}). *)

let kind = "ferrum.trace.v1"

(* ------------------------------------------------------------------ *)
(* Ids and contexts.                                                   *)
(* ------------------------------------------------------------------ *)

(* Deterministic trace id: 16 hex chars from the campaign seed and a
   caller salt (manifest digest, spec text, ...), so reruns of the
   same configuration stitch under the same id without coordination. *)
let derive_id ~seed salt =
  String.sub (Digest.to_hex (Digest.string (Int64.to_string seed ^ "/" ^ salt))) 0 16

(* What a process needs to start spans under another process's trace:
   the trace id, the parent link for its root span, and the root span
   id itself (minted by the sender, so ids stay collision-free). *)
type ctx = { c_trace : string; c_parent : string; c_span : string }

let ctx_make ~trace ~parent ~seg =
  {
    c_trace = trace;
    c_parent = parent;
    c_span = (if parent = "" then seg else parent ^ "." ^ seg);
  }

(* W3C-shaped traceparent: version 00, our trace and span ids, flags
   01.  Our ids are dot-separated [0-9a-z] segments — no dashes — so
   splitting on '-' is unambiguous. *)
let to_traceparent ~trace ~span = Fmt.str "00-%s-%s-01" trace span

let id_ok s =
  s <> ""
  && String.for_all
       (function '0' .. '9' | 'a' .. 'z' | '.' -> true | _ -> false)
       s

let of_traceparent s =
  match String.split_on_char '-' (String.trim s) with
  | [ "00"; trace; span; _flags ] when id_ok trace && id_ok span ->
    Some (trace, span)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Spans and wall rows.                                                *)
(* ------------------------------------------------------------------ *)

type span = {
  sp_id : string;
  sp_parent : string;  (** [""] for a trace root *)
  sp_name : string;
  sp_proc : string;
  sp_l_start : int;  (** recorder logical clock at open *)
  sp_l_end : int;
  sp_counters : (string * int) list;  (** insertion order *)
}

type wall = {
  wl_span : string;
  wl_name : string;
  wl_proc : string;
  wl_start : float;  (** [Unix.gettimeofday] at open *)
  wl_end : float;
  wl_cpu_user : float;  (** CPU seconds, [Unix.times] delta *)
  wl_cpu_sys : float;
  wl_maxrss_kb : int;  (** peak RSS at close; [-1] when unavailable *)
}

(* ------------------------------------------------------------------ *)
(* Recorder.                                                           *)
(* ------------------------------------------------------------------ *)

type open_span = {
  o_id : string;
  o_parent : string;
  o_name : string;
  o_order : int;
  o_l_start : int;
  mutable o_counters : (string * int) list;  (* newest first *)
  mutable o_children : int;
  mutable o_w_start : float;
  o_cpu_u : float;
  o_cpu_s : float;
}

type recorder = {
  r_trace : string;
  r_proc : string;
  r_base : string;  (* id of the first top-level span; "" = number them *)
  r_parent : string;  (* parent link of top-level spans *)
  mutable r_logical : int;
  mutable r_started : int;
  mutable r_top : int;
  mutable r_stack : open_span list;  (* innermost first *)
  mutable r_spans : (int * span) list;  (* (start order, span), newest first *)
  mutable r_walls : wall list;  (* newest first *)
  mutable r_foreign_spans : string list;  (* absorbed raw rows, in order *)
  mutable r_foreign_walls : string list;
}

let make ~trace ~proc ~base ~parent =
  {
    r_trace = trace;
    r_proc = proc;
    r_base = base;
    r_parent = parent;
    r_logical = 0;
    r_started = 0;
    r_top = 0;
    r_stack = [];
    r_spans = [];
    r_walls = [];
    r_foreign_spans = [];
    r_foreign_walls = [];
  }

let create ~trace ~proc () = make ~trace ~proc ~base:"" ~parent:""
let scoped (c : ctx) ~proc =
  make ~trace:c.c_trace ~proc ~base:c.c_span ~parent:c.c_parent

let advance r n = r.r_logical <- r.r_logical + n

let now_cpu () =
  let t = Unix.times () in
  (t.Unix.tms_utime, t.Unix.tms_stime)

(* Peak RSS in kB from /proc/self/status (OCaml's Unix has no
   getrusage); -1 off Linux. *)
let maxrss_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> -1
  | ic ->
    let rec go () =
      match input_line ic with
      | exception End_of_file -> -1
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          let digits =
            String.to_seq line
            |> Seq.filter (fun c -> c >= '0' && c <= '9')
            |> String.of_seq
          in
          Option.value ~default:(-1) (int_of_string_opt digits)
        else go ()
    in
    let v = go () in
    close_in ic;
    v

let enter r name =
  let id, parent =
    match r.r_stack with
    | o :: _ ->
      let id = o.o_id ^ "." ^ string_of_int o.o_children in
      o.o_children <- o.o_children + 1;
      (id, o.o_id)
    | [] ->
      let id =
        (* a scoped recorder's first top-level span IS the minted base
           id; later top-level spans (rare) suffix with 'x' so they can
           never collide with the first span's numeric children *)
        if r.r_base = "" then string_of_int r.r_top
        else if r.r_top = 0 then r.r_base
        else r.r_base ^ "x" ^ string_of_int (r.r_top - 1)
      in
      r.r_top <- r.r_top + 1;
      (id, r.r_parent)
  in
  let u, s = now_cpu () in
  let o =
    {
      o_id = id;
      o_parent = parent;
      o_name = name;
      o_order = r.r_started;
      o_l_start = r.r_logical;
      o_counters = [];
      o_children = 0;
      o_w_start = Unix.gettimeofday ();
      o_cpu_u = u;
      o_cpu_s = s;
    }
  in
  r.r_started <- r.r_started + 1;
  r.r_stack <- o :: r.r_stack;
  o

let exit_ r o =
  (match r.r_stack with
  | top :: rest when top == o -> r.r_stack <- rest
  | _ -> invalid_arg "Trace: exited a span that is not innermost");
  let u, s = now_cpu () in
  r.r_spans <-
    ( o.o_order,
      {
        sp_id = o.o_id;
        sp_parent = o.o_parent;
        sp_name = o.o_name;
        sp_proc = r.r_proc;
        sp_l_start = o.o_l_start;
        sp_l_end = r.r_logical;
        sp_counters = List.rev o.o_counters;
      } )
    :: r.r_spans;
  r.r_walls <-
    {
      wl_span = o.o_id;
      wl_name = o.o_name;
      wl_proc = r.r_proc;
      wl_start = o.o_w_start;
      wl_end = Unix.gettimeofday ();
      wl_cpu_user = u -. o.o_cpu_u;
      wl_cpu_sys = s -. o.o_cpu_s;
      wl_maxrss_kb = maxrss_kb ();
    }
    :: r.r_walls

(* Run [f] inside a span; closes it even if [f] raises.  [w_start]
   backdates the wall interval (queue-wait spans open at submission
   time, not at observation time). *)
let span ?w_start r name f =
  let o = enter r name in
  (match w_start with Some w -> o.o_w_start <- w | None -> ());
  match f () with
  | v ->
    exit_ r o;
    v
  | exception e ->
    exit_ r o;
    raise e

(* Attach a counter to the innermost open span.  Every call site
   (campaign phases, pipeline stages) sits inside a span; a stray
   counter (no span open) is dropped. *)
let counter r name value =
  match r.r_stack with
  | o :: _ -> o.o_counters <- (name, value) :: o.o_counters
  | [] -> ()

(* Child-process context under the innermost open span (or this
   recorder's own root position when none is open).  [seg] must be a
   non-numeric [0-9a-z]+ segment chosen unique by the caller — e.g.
   "s<gid>" for shard gid — so minted ids never collide with the
   sequentially numbered in-process children. *)
let ctx_for r ~seg =
  match r.r_stack with
  | o :: _ -> ctx_make ~trace:r.r_trace ~parent:o.o_id ~seg
  | [] -> ctx_make ~trace:r.r_trace ~parent:r.r_parent ~seg

let absorb r ~span_lines ~wall_lines =
  r.r_foreign_spans <- r.r_foreign_spans @ span_lines;
  r.r_foreign_walls <- r.r_foreign_walls @ wall_lines

(* ------------------------------------------------------------------ *)
(* Serialization.                                                      *)
(* ------------------------------------------------------------------ *)

let span_to_json ~trace (s : span) : Json.t =
  Json.Obj
    ([
       ("row", Json.Str "span");
       ("trace", Json.Str trace);
       ("span", Json.Str s.sp_id);
       ("parent", Json.Str s.sp_parent);
       ("name", Json.Str s.sp_name);
       ("proc", Json.Str s.sp_proc);
       ("l_start", Json.Int s.sp_l_start);
       ("l_end", Json.Int s.sp_l_end);
     ]
    @
    match s.sp_counters with
    | [] -> []
    | cs ->
      [ ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) cs)) ]
    )

(* Wall times print as %.6f, not through {!Json}'s %.12g: at epoch
   scale twelve digits keep only 10 ms, which rounds short spans to
   zero.  The parser reads both forms. *)
let wall_line ~trace (w : wall) =
  let str v = Json.to_string (Json.Str v) in
  let num v = Json.to_string (Json.Float v) in
  Printf.sprintf
    {|{"row":"wall","trace":%s,"span":%s,"name":%s,"proc":%s,"w_start":%.6f,"w_end":%.6f,"cpu_user":%s,"cpu_sys":%s,"maxrss_kb":%d}|}
    (str trace) (str w.wl_span) (str w.wl_name) (str w.wl_proc) w.wl_start
    w.wl_end (num w.wl_cpu_user) (num w.wl_cpu_sys) w.wl_maxrss_kb

let ( let* ) = Result.bind

let span_of_json j : (string * span, string) result =
  let* trace = Json.str "trace" j in
  let* sp_id = Json.str "span" j in
  let* sp_parent = Json.str "parent" j in
  let* sp_name = Json.str "name" j in
  let* sp_proc = Json.str "proc" j in
  let* sp_l_start = Json.int "l_start" j in
  let* sp_l_end = Json.int "l_end" j in
  let* sp_counters =
    match Json.member "counters" j with
    | None -> Ok []
    | Some (Json.Obj fields) ->
      List.fold_right
        (fun (k, v) acc ->
          let* acc = acc in
          match v with
          | Json.Int n -> Ok ((k, n) :: acc)
          | _ -> Error (Fmt.str "trace row: counter %S is not an int" k))
        fields (Ok [])
    | Some _ -> Error "trace row: bad field \"counters\""
  in
  Ok (trace, { sp_id; sp_parent; sp_name; sp_proc; sp_l_start; sp_l_end; sp_counters })

let wall_of_json j : (string * wall, string) result =
  let* trace = Json.str "trace" j in
  let* wl_span = Json.str "span" j in
  let* wl_name = Json.str "name" j in
  let* wl_proc = Json.str "proc" j in
  let* wl_start = Json.float "w_start" j in
  let* wl_end = Json.float "w_end" j in
  let* wl_cpu_user = Json.float "cpu_user" j in
  let* wl_cpu_sys = Json.float "cpu_sys" j in
  let* wl_maxrss_kb = Json.int "maxrss_kb" j in
  Ok
    ( trace,
      { wl_span; wl_name; wl_proc; wl_start; wl_end; wl_cpu_user; wl_cpu_sys;
        wl_maxrss_kb } )

type row = Span_row of string * span | Wall_row of string * wall

let row_of_json j : (row, string) result =
  match Json.member "row" j with
  | Some (Json.Str "span") ->
    Result.map (fun (t, s) -> Span_row (t, s)) (span_of_json j)
  | Some (Json.Str "wall") ->
    Result.map (fun (t, w) -> Wall_row (t, w)) (wall_of_json j)
  | _ -> Error "trace row: missing or unknown \"row\""

(* Record lines (no header) -> parsed rows, first error wins. *)
let rows_of_lines lines : (row list, string) result =
  let rec go i acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
      match Json.of_string_opt line with
      | None -> Error (Fmt.str "line %d is not valid JSON" i)
      | Some j -> (
        match row_of_json j with
        | Ok r -> go (i + 1) (r :: acc) rest
        | Error e -> Error (Fmt.str "line %d: %s" i e)))
  in
  go 2 [] lines

let spans_of_rows rows =
  List.filter_map (function Span_row (_, s) -> Some s | Wall_row _ -> None) rows

let walls_of_rows rows =
  List.filter_map (function Wall_row (_, w) -> Some w | Span_row _ -> None) rows

(* ------------------------------------------------------------------ *)
(* Harvest.                                                            *)
(* ------------------------------------------------------------------ *)

(* Own closed spans in start order: the root a recorder opened first
   comes first even though it closed last. *)
let own_spans r =
  List.sort (fun (a, _) (b, _) -> compare a b) (List.rev r.r_spans)
  |> List.map snd

(* Own spans, then absorbed child-process rows in absorption order —
   deterministic because the campaign runner absorbs shards in global
   id order. *)
let span_lines r =
  List.map
    (fun s -> Json.to_string (span_to_json ~trace:r.r_trace s))
    (own_spans r)
  @ r.r_foreign_spans

let wall_lines r =
  let own = List.rev r.r_walls in
  List.map (wall_line ~trace:r.r_trace) own
  @ r.r_foreign_walls

(* ------------------------------------------------------------------ *)
(* Span tree.                                                          *)
(* ------------------------------------------------------------------ *)

(* The one tree view every reader walks: validation, the exporters,
   the dashboard icicle and {!pp}.  Roots are spans whose parent is
   empty or outside the set, in the given order; children are sorted
   once, by logical start then by id.  Ids compare segment by segment
   — letter prefix, then the number by digit count and digits, then
   any rest — so shard "s2" precedes "s10".  With unique ids (what
   {!validate_stitched} checks) spans on a parent cycle are unreachable
   from every root, so walks from {!roots} terminate. *)
type tree = {
  t_roots : span list;
  t_children : (string, span list) Hashtbl.t;
  t_walls : (string, wall) Hashtbl.t;
  t_use_wall : bool;  (* the sidecar covers every span *)
  t_w0 : float;  (* earliest wall open among the spans *)
}

let seg_key seg =
  let n = String.length seg in
  let rec skip digit i =
    if i < n && (seg.[i] >= '0' && seg.[i] <= '9') = digit then
      skip digit (i + 1)
    else i
  in
  let i = skip false 0 in
  let j = skip true i in
  let sub a b = String.sub seg a (b - a) in
  (sub 0 i, j - i, sub i j, sub j n)

let sibling_key s =
  (s.sp_l_start, List.map seg_key (String.split_on_char '.' s.sp_id))

let children_of tbl id = Option.value ~default:[] (Hashtbl.find_opt tbl id)

let tree ~spans ~walls =
  let ids = Hashtbl.create 64 and t_walls = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace ids s.sp_id ()) spans;
  List.iter (fun w -> Hashtbl.replace t_walls w.wl_span w) walls;
  let is_root s = s.sp_parent = "" || not (Hashtbl.mem ids s.sp_parent) in
  let t_children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if not (is_root s) then
        Hashtbl.replace t_children s.sp_parent
          (s :: children_of t_children s.sp_parent))
    (List.rev spans);
  let sort kids =
    List.map (fun s -> (sibling_key s, s)) kids
    |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
    |> List.map snd
  in
  Hashtbl.filter_map_inplace (fun _ kids -> Some (sort kids)) t_children;
  {
    t_roots = List.filter is_root spans;
    t_children;
    t_walls;
    t_use_wall =
      spans <> [] && List.for_all (fun s -> Hashtbl.mem t_walls s.sp_id) spans;
    t_w0 =
      List.fold_left
        (fun acc s ->
          match Hashtbl.find_opt t_walls s.sp_id with
          | Some w -> Float.min acc w.wl_start
          | None -> acc)
        infinity spans;
  }

let roots t = t.t_roots
let children t s = children_of t.t_children s.sp_id
let wall_of t s = Hashtbl.find_opt t.t_walls s.sp_id

(* The exporters' clock: (start, duration) in wall microseconds,
   rebased to the earliest open, when the sidecar covers every span;
   logical steps otherwise. *)
let interval t s =
  if t.t_use_wall then
    let w = Hashtbl.find t.t_walls s.sp_id in
    ( (w.wl_start -. t.t_w0) *. 1e6,
      Float.max 0.0 (w.wl_end -. w.wl_start) *. 1e6 )
  else
    ( float_of_int s.sp_l_start,
      float_of_int (max 0 (s.sp_l_end - s.sp_l_start)) )

(* This recorder's own spans as an indented tree: name padded to the
   counter column, the wall duration with [~timings:true], counters. *)
let pp ?(timings = false) ppf r =
  let t = tree ~spans:(own_spans r) ~walls:r.r_walls in
  let rec line depth s =
    Fmt.pf ppf "%s%-*s" (String.make (2 * depth) ' ')
      (max 1 (24 - (2 * depth)))
      s.sp_name;
    (match wall_of t s with
    | Some w when timings ->
      Fmt.pf ppf " %8.3f ms" ((w.wl_end -. w.wl_start) *. 1e3)
    | _ -> ());
    if s.sp_counters <> [] then
      Fmt.pf ppf "  [%a]"
        Fmt.(list ~sep:(any ", ") (fun ppf (k, v) -> pf ppf "%s=%d" k v))
        s.sp_counters;
    Fmt.pf ppf "@.";
    List.iter (line (depth + 1)) (children t s)
  in
  List.iter (line 0) (roots t)

(* ------------------------------------------------------------------ *)
(* Schema.                                                             *)
(* ------------------------------------------------------------------ *)

(* One field list validates both row kinds: the discriminator and ids
   are required, everything else is per-kind optional.  Registered in
   the `ferrum metrics` registry, so validation failures come back
   line-numbered like every other schema. *)
let fields =
  Metrics.
    [
      field "row" F_string;
      field "trace" F_string;
      field "span" F_string;
      field ~required:false "parent" F_string;
      field ~required:false "name" F_string;
      field ~required:false "proc" F_string;
      field ~required:false "l_start" F_int;
      field ~required:false "l_end" F_int;
      field ~required:false "w_start" F_float;
      field ~required:false "w_end" F_float;
      field ~required:false "cpu_user" F_float;
      field ~required:false "cpu_sys" F_float;
      field ~required:false "maxrss_kb" F_int;
    ]

let header extra = Metrics.header ~kind extra

(* ------------------------------------------------------------------ *)
(* Stitching validation.                                               *)
(* ------------------------------------------------------------------ *)

(* A stitched trace is coherent when its span rows share one trace id,
   ids are unique, exactly one span is a root (parent empty or outside
   the document — a daemon-side trace may hang under a client span the
   file never saw), and every other span's parent chain resolves to
   that root without cycles.  Returns the root span id. *)
let validate_stitched lines : (string, string) result =
  let* rows = rows_of_lines lines in
  let spans = spans_of_rows rows in
  if spans = [] then Error "trace has no span rows"
  else begin
    let traces =
      List.sort_uniq compare
        (List.filter_map
           (function Span_row (t, _) -> Some t | Wall_row _ -> None)
           rows)
    in
    let* () =
      match traces with
      | [ _ ] -> Ok ()
      | ts -> Error (Fmt.str "trace has %d distinct trace ids" (List.length ts))
    in
    let seen = Hashtbl.create 64 in
    let* () =
      List.fold_left
        (fun acc s ->
          let* () = acc in
          if Hashtbl.mem seen s.sp_id then
            Error (Fmt.str "duplicate span id %S" s.sp_id)
          else Ok (Hashtbl.add seen s.sp_id ()))
        (Ok ()) spans
    in
    let t = tree ~spans ~walls:[] in
    let* root =
      match roots t with
      | [ r ] -> Ok r
      | [] -> Error "trace has no root span"
      | rs ->
        Error
          (Fmt.str "trace has %d roots (%s)" (List.length rs)
             (String.concat ", " (List.map (fun s -> s.sp_id) rs)))
    in
    (* what the walk from the root misses sits on a parent cycle *)
    let rec reach s =
      Hashtbl.remove seen s.sp_id;
      List.iter reach (children t s)
    in
    reach root;
    match List.find_opt (fun s -> Hashtbl.mem seen s.sp_id) spans with
    | Some s ->
      Error (Fmt.str "span %S: parent chain does not terminate" s.sp_id)
    | None -> Ok root.sp_id
  end

(* ------------------------------------------------------------------ *)
(* Exporters.                                                          *)
(* ------------------------------------------------------------------ *)

(* Index processes in first-seen span order: Chrome trace viewers group
   rows by (pid, tid), and a stable small integer per process label
   keeps the export deterministic. *)
let proc_index spans =
  let seen = Hashtbl.create 8 in
  let next = ref 0 in
  List.iter
    (fun s ->
      if not (Hashtbl.mem seen s.sp_proc) then begin
        Hashtbl.add seen s.sp_proc !next;
        incr next
      end)
    spans;
  fun proc -> Option.value ~default:0 (Hashtbl.find_opt seen proc)

(* Chrome trace-event JSON (Perfetto-loadable): one complete event
   ("ph":"X") per span.  When every span has a wall row the timeline is
   wall microseconds rebased to the earliest open; otherwise it falls
   back to the logical clock (1 step = 1 us), which is what exports of
   byte-reproducible traces without their sidecar use. *)
let perfetto ~spans ~walls : Json.t =
  let t = tree ~spans ~walls in
  let proc = proc_index spans in
  let events =
    List.map
      (fun s ->
        let ts, dur = interval t s in
        let idx = proc s.sp_proc in
        let args =
          ("span", Json.Str s.sp_id)
          :: ("proc", Json.Str s.sp_proc)
          :: List.map (fun (k, v) -> (k, Json.Int v)) s.sp_counters
        in
        Json.Obj
          [
            ("name", Json.Str s.sp_name);
            ("cat", Json.Str "ferrum");
            ("ph", Json.Str "X");
            ("ts", Json.Float ts);
            ("dur", Json.Float dur);
            ("pid", Json.Int idx);
            ("tid", Json.Int idx);
            ("args", Json.Obj args);
          ])
      spans
  in
  Json.Obj
    [
      ("traceEvents", Json.Arr events); ("displayTimeUnit", Json.Str "ms");
    ]

(* Folded flamegraph stacks ("root;child;leaf <weight>"), one line per
   distinct name path, weights summed and sorted for determinism.
   Weights are self time: a span's duration minus its children's, wall
   microseconds when the sidecar covers every span, logical steps
   otherwise. *)
let folded ~spans ~walls : string list =
  let t = tree ~spans ~walls in
  let duration s = snd (interval t s) in
  let weights = Hashtbl.create 64 in
  let rec walk parent s =
    let key =
      match parent with None -> s.sp_name | Some p -> p ^ ";" ^ s.sp_name
    in
    let kids = children t s in
    let self =
      Float.max 0.0
        (duration s -. List.fold_left (fun a c -> a +. duration c) 0.0 kids)
    in
    Hashtbl.replace weights key
      (Option.value ~default:0.0 (Hashtbl.find_opt weights key) +. self);
    List.iter (walk (Some key)) kids
  in
  List.iter (walk None) (roots t);
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) weights []
  |> List.sort compare
  |> List.filter_map (fun (k, v) ->
         let n = int_of_float (Float.round v) in
         if n <= 0 then None else Some (Fmt.str "%s %d" k n))
