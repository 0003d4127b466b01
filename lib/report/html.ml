(* Self-contained HTML dashboard over campaign run directories.

   One file, no external assets: styles and data inline, charts as
   inline SVG.  Four panels — outcome stacked bars per workload ×
   technique, detection-latency CDFs, per-site vulnerability heat
   strips, and the protection-overhead provenance split — all rendered
   from the JSONL/manifest files a finished `ferrum campaign` run
   directory already contains.

   Colors are a validated CVD-safe palette (adjacent-pair ΔE gates in
   both light and dark mode); low-contrast slots are relieved by direct
   labels and the per-panel data tables, and all text wears ink tokens,
   never series colors. *)

module Json = Ferrum_telemetry.Json
module Metrics = Ferrum_telemetry.Metrics
module Stats = Ferrum_telemetry.Stats
module Trace = Ferrum_telemetry.Trace
module Manifest = Ferrum_campaign.Manifest
module Store = Ferrum_campaign.Store

(* ------------------------------------------------------------------ *)
(* Run loading.                                                        *)
(* ------------------------------------------------------------------ *)

type site = {
  si_index : int;
  si_opcode : string;
  si_prov : string;
  si_samples : int;
  si_sdc : int;
  si_detected : int;
}

type run = {
  r_dir : string;
  r_manifest : Manifest.t;
  r_classes : (string * int) list;  (** outcome -> count *)
  r_latency : (float * int) list;
      (** (site mean detection-latency cycles, detected count),
          ascending — the site-weighted latency distribution *)
  r_sites : site list;  (** static-index order *)
  r_trace : (int * float * float * float) list;
      (** stats.jsonl convergence trace: (samples spent, SDC p-hat,
          Wilson lo, Wilson hi), chronological; empty without stats *)
}

let label r =
  r.r_manifest.Manifest.benchmark ^ "." ^ r.r_manifest.Manifest.technique

let manifest r = r.r_manifest
let latency r = r.r_latency
let sites r = r.r_sites

let classes = [ "detected"; "sdc"; "crash"; "timeout"; "benign" ]

let class_count r c =
  Option.value ~default:0 (List.assoc_opt c r.r_classes)

let load_run dir : (run, string) result =
  match Manifest.load ~dir with
  | Error e -> Error (Fmt.str "%s: %s" dir e)
  | Ok m -> (
    let injection = Filename.concat dir Store.injection_file in
    if not (Sys.file_exists injection) then
      Error (Fmt.str "%s: missing %s" dir Store.injection_file)
    else
      let counts = Hashtbl.create 8 in
      List.iteri
        (fun i line ->
          if i > 0 then
            match
              Option.bind (Json.of_string_opt line) (fun j ->
                  Result.to_option (Json.str "class" j))
            with
            | Some c ->
              Hashtbl.replace counts c
                (1 + Option.value ~default:0 (Hashtbl.find_opt counts c))
            | None -> ())
        (Metrics.read_lines injection);
      let r_classes =
        List.map
          (fun c -> (c, Option.value ~default:0 (Hashtbl.find_opt counts c)))
          classes
      in
      let vulnmap = Filename.concat dir Store.vulnmap_file in
      let r_sites, r_latency =
        if not (Sys.file_exists vulnmap) then ([], [])
        else begin
          let sites =
            List.filteri (fun i _ -> i > 0) (Metrics.read_lines vulnmap)
            |> List.filter_map (fun line ->
                   Option.bind (Json.of_string_opt line) (fun j ->
                       Result.to_option
                         (let ( let* ) = Result.bind in
                          let* si_index = Json.int "static_index" j in
                          let* si_opcode = Json.str "opcode" j in
                          let* si_prov = Json.str "prov" j in
                          let* si_samples = Json.int "samples" j in
                          let* si_sdc = Json.int "sdc" j in
                          let* si_detected = Json.int "detected" j in
                          let* mean = Json.float "mean_det_cycles" j in
                          Ok
                            ( { si_index; si_opcode; si_prov; si_samples;
                                si_sdc; si_detected },
                              mean ))))
          in
          let latency =
            List.filter_map
              (fun (s, mean) ->
                if s.si_detected > 0 then Some (mean, s.si_detected)
                else None)
              sites
            |> List.sort compare
          in
          (List.map fst sites, latency)
        end
      in
      let stats = Filename.concat dir Store.stats_file in
      let r_trace =
        if not (Sys.file_exists stats) then []
        else
          List.filteri (fun i _ -> i > 0) (Metrics.read_lines stats)
          |> List.filter_map (fun line ->
                 match Stats.row_of_string line with
                 | Ok r when r.Stats.row = "trace" ->
                   Some (r.Stats.spent, r.Stats.p, r.Stats.lo, r.Stats.hi)
                 | _ -> None)
      in
      Ok { r_dir = dir; r_manifest = m; r_classes; r_latency; r_sites; r_trace })

let load_runs dir : (run list, string) result =
  let manifest_here d = Sys.file_exists (Filename.concat d Manifest.file) in
  let dirs =
    if manifest_here dir then [ dir ]
    else if Sys.file_exists dir && Sys.is_directory dir then
      Sys.readdir dir |> Array.to_list |> List.sort compare
      |> List.map (Filename.concat dir)
      |> List.filter (fun d -> Sys.is_directory d && manifest_here d)
    else []
  in
  if dirs = [] then
    Error (Fmt.str "%s: no campaign run directories (manifest.json)" dir)
  else
    List.fold_right
      (fun d acc ->
        Result.bind acc (fun runs ->
            Result.map (fun r -> r :: runs) (load_run d)))
      dirs (Ok [])

(* ------------------------------------------------------------------ *)
(* HTML helpers.                                                       *)
(* ------------------------------------------------------------------ *)

let esc s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (function
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '&' -> Buffer.add_string buf "&amp;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Outcome series: validated categorical slots, by CSS variable so the
   dark steps swap in one place. *)
let class_var = function
  | "detected" -> "var(--c-detected)"
  | "sdc" -> "var(--c-sdc)"
  | "crash" -> "var(--c-crash)"
  | "timeout" -> "var(--c-timeout)"
  | _ -> "var(--c-benign)"

let prov_order = [ "original"; "dup"; "check"; "instr" ]

let prov_var = function
  | "original" -> "var(--p-original)"
  | "dup" -> "var(--p-dup)"
  | "check" -> "var(--p-check)"
  | _ -> "var(--p-instr)"

(* Sequential blue ramp (light->dark) for the heat strips. *)
let heat_ramp =
  [| "#cde2fb"; "#9ec5f4"; "#6da7ec"; "#3987e5"; "#2a78d6"; "#256abf";
     "#1c5cab"; "#0d366b" |]

let heat_color rate max_rate =
  if max_rate <= 0.0 then heat_ramp.(0)
  else
    let i =
      int_of_float (rate /. max_rate *. float_of_int (Array.length heat_ramp))
    in
    heat_ramp.(max 0 (min (Array.length heat_ramp - 1) i))

let style =
  {css|
  :root {
    color-scheme: light;
    --surface-1: #fcfcfb; --page: #f9f9f7;
    --ink-1: #0b0b0b; --ink-2: #52514e; --ink-3: #898781;
    --grid: #e1e0d9; --axis: #c3c2b7; --ring: rgba(11,11,11,0.10);
    --c-detected: #2a78d6; --c-sdc: #e34948; --c-crash: #eda100;
    --c-timeout: #4a3aa7; --c-benign: #1baf7a;
    --p-original: #2a78d6; --p-dup: #eb6834; --p-check: #1baf7a;
    --p-instr: #eda100;
  }
  @media (prefers-color-scheme: dark) {
    :root {
      color-scheme: dark;
      --surface-1: #1a1a19; --page: #0d0d0d;
      --ink-1: #ffffff; --ink-2: #c3c2b7; --ink-3: #898781;
      --grid: #2c2c2a; --axis: #383835; --ring: rgba(255,255,255,0.10);
      --c-detected: #3987e5; --c-sdc: #e66767; --c-crash: #c98500;
      --c-timeout: #9085e9; --c-benign: #199e70;
      --p-original: #3987e5; --p-dup: #d95926; --p-check: #199e70;
      --p-instr: #c98500;
    }
  }
  body { background: var(--page); color: var(--ink-1);
    font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
    margin: 0 auto; max-width: 860px; padding: 24px 16px 64px; }
  h1 { font-size: 20px; } h2 { font-size: 16px; margin: 0 0 4px; }
  .panel { background: var(--surface-1); border: 1px solid var(--ring);
    border-radius: 8px; padding: 16px; margin: 16px 0; }
  .sub { color: var(--ink-2); font-size: 12px; margin: 0 0 10px; }
  .legend { display: flex; flex-wrap: wrap; gap: 12px;
    color: var(--ink-2); font-size: 12px; margin: 8px 0 0; }
  .legend .chip { display: inline-block; width: 10px; height: 10px;
    border-radius: 3px; margin-right: 4px; vertical-align: baseline; }
  .rowlabel { fill: var(--ink-2); font-size: 12px; }
  .spanlabel { fill: #ffffff; font-size: 11px; pointer-events: none; }
  h3 { font-size: 13px; color: var(--ink-2); margin: 10px 0 4px; }
  .val { fill: var(--ink-1); font-size: 11px; }
  .axis-label { fill: var(--ink-3); font-size: 11px; }
  svg { display: block; max-width: 100%; }
  details { margin-top: 10px; color: var(--ink-2); font-size: 12px; }
  table { border-collapse: collapse; margin-top: 6px;
    font-variant-numeric: tabular-nums; }
  th, td { border-bottom: 1px solid var(--grid); padding: 2px 10px 2px 0;
    text-align: right; } th:first-child, td:first-child { text-align: left; }
  |css}

(* ------------------------------------------------------------------ *)
(* Panels.                                                             *)
(* ------------------------------------------------------------------ *)

let chart_w = 760
let label_w = 210
let plot_w = chart_w - label_w - 10

let legend items =
  let chips =
    List.map
      (fun (name, var) ->
        Fmt.str "<span><span class=\"chip\" style=\"background:%s\"></span>%s</span>"
          var (esc name))
      items
  in
  Fmt.str "<div class=\"legend\">%s</div>" (String.concat "" chips)

(* Panel 1: outcome distribution, one stacked horizontal bar per run.
   Segment gaps are 2px of surface; counts are direct-labeled in ink
   when the segment is wide enough (relief for low-contrast slots). *)
let outcomes_panel runs =
  let row_h = 26 and bar_h = 16 in
  let h = (row_h * List.length runs) + 8 in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Fmt.str "<svg viewBox=\"0 0 %d %d\" role=\"img\" aria-label=\"Outcome distribution\">"
       chart_w h);
  List.iteri
    (fun i r ->
      let y = i * row_h in
      let total = max 1 (List.fold_left (fun a c -> a + class_count r c) 0 classes) in
      Buffer.add_string buf
        (Fmt.str "<text class=\"rowlabel\" x=\"0\" y=\"%d\">%s</text>"
           (y + bar_h - 2) (esc (label r)));
      let x = ref label_w in
      List.iter
        (fun c ->
          let n = class_count r c in
          if n > 0 then begin
            let w = n * plot_w / total in
            let w_draw = max 1 (w - 2) in
            Buffer.add_string buf
              (Fmt.str
                 "<rect x=\"%d\" y=\"%d\" width=\"%d\" height=\"%d\" rx=\"3\" fill=\"%s\"><title>%s: %d/%d</title></rect>"
                 !x y w_draw bar_h (class_var c) (esc c) n total);
            if w_draw > 34 then
              Buffer.add_string buf
                (Fmt.str
                   "<text class=\"val\" x=\"%d\" y=\"%d\" fill=\"#fff\">%d</text>"
                   (!x + 4) (y + bar_h - 4) n);
            x := !x + w
          end)
        classes)
    runs;
  Buffer.add_string buf "</svg>";
  let table =
    let rows =
      List.map
        (fun r ->
          Fmt.str "<tr><td>%s</td>%s</tr>" (esc (label r))
            (String.concat ""
               (List.map
                  (fun c -> Fmt.str "<td>%d</td>" (class_count r c))
                  classes)))
        runs
    in
    Fmt.str
      "<details><summary>Data table</summary><table><tr><th>run</th>%s</tr>%s</table></details>"
      (String.concat ""
         (List.map (fun c -> Fmt.str "<th>%s</th>" (esc c)) classes))
      (String.concat "" rows)
  in
  Fmt.str
    "<section class=\"panel\"><h2>Outcomes</h2><p class=\"sub\">Injection outcomes per workload &#215; technique (stacked, share of samples).</p>%s%s%s</section>"
    (Buffer.contents buf)
    (legend (List.map (fun c -> (c, class_var c)) classes))
    table

(* Panel 2: detection-latency CDFs, one line per run, x = site-mean
   detection latency (cycles), y = cumulative share of detected
   samples.  Series colors are the categorical slots in run order. *)
let series_vars =
  [| "var(--c-detected)"; "var(--p-dup)"; "var(--c-benign)"; "var(--c-crash)";
     "#e87ba4"; "#008300"; "var(--c-timeout)"; "var(--c-sdc)" |]

let latency_panel runs =
  let runs = List.filter (fun r -> r.r_latency <> []) runs in
  if runs = [] then
    "<section class=\"panel\"><h2>Detection latency</h2><p class=\"sub\">No traced runs (vulnmap.jsonl) in this set.</p></section>"
  else begin
    let shown = List.filteri (fun i _ -> i < 8) runs in
    let dropped = List.length runs - List.length shown in
    let w = chart_w and h = 240 in
    let mx = 56 and my = 12 and mb = 28 in
    let pw = w - mx - 12 and ph = h - my - mb in
    let max_x =
      List.fold_left
        (fun a r -> List.fold_left (fun a (c, _) -> max a c) a r.r_latency)
        1.0 shown
    in
    let buf = Buffer.create 4096 in
    Buffer.add_string buf
      (Fmt.str "<svg viewBox=\"0 0 %d %d\" role=\"img\" aria-label=\"Detection latency CDF\">" w h);
    (* grid + y axis: 0 25 50 75 100% *)
    List.iter
      (fun q ->
        let y = my + ph - int_of_float (float_of_int ph *. q) in
        Buffer.add_string buf
          (Fmt.str
             "<line x1=\"%d\" y1=\"%d\" x2=\"%d\" y2=\"%d\" stroke=\"var(--grid)\"/><text class=\"axis-label\" x=\"%d\" y=\"%d\" text-anchor=\"end\">%.0f%%</text>"
             mx y (mx + pw) y (mx - 6) (y + 4) (q *. 100.0)))
      [ 0.0; 0.25; 0.5; 0.75; 1.0 ];
    Buffer.add_string buf
      (Fmt.str
         "<text class=\"axis-label\" x=\"%d\" y=\"%d\">detection latency (model cycles, site mean)</text>"
         mx (h - 8));
    Buffer.add_string buf
      (Fmt.str
         "<text class=\"axis-label\" x=\"%d\" y=\"%d\" text-anchor=\"end\">%.0f</text>"
         (mx + pw) (my + ph + 14) max_x);
    List.iteri
      (fun i r ->
        let total =
          List.fold_left (fun a (_, n) -> a + n) 0 r.r_latency
        in
        let pts = Buffer.create 256 in
        Buffer.add_string pts (Fmt.str "%d,%d" mx (my + ph));
        let acc = ref 0 in
        List.iter
          (fun (c, n) ->
            acc := !acc + n;
            let x =
              mx + int_of_float (c /. max_x *. float_of_int pw)
            in
            let y =
              my + ph
              - int_of_float
                  (float_of_int !acc /. float_of_int total
                  *. float_of_int ph)
            in
            Buffer.add_string pts (Fmt.str " %d,%d" x y))
          r.r_latency;
        Buffer.add_string buf
          (Fmt.str
             "<polyline points=\"%s\" fill=\"none\" stroke=\"%s\" stroke-width=\"2\" stroke-linejoin=\"round\"><title>%s (%d detected)</title></polyline>"
             (Buffer.contents pts)
             series_vars.(i mod Array.length series_vars)
             (esc (label r)) total))
      shown;
    Buffer.add_string buf "</svg>";
    let note =
      if dropped > 0 then
        Fmt.str "<p class=\"sub\">%d more runs omitted (series cap 8); see the data table.</p>" dropped
      else ""
    in
    let table =
      Fmt.str
        "<details><summary>Data table</summary><table><tr><th>run</th><th>detected</th><th>median latency</th><th>max latency</th></tr>%s</table></details>"
        (String.concat ""
           (List.map
              (fun r ->
                let total =
                  List.fold_left (fun a (_, n) -> a + n) 0 r.r_latency
                in
                let median =
                  let acc = ref 0 and res = ref 0.0 in
                  (try
                     List.iter
                       (fun (c, n) ->
                         acc := !acc + n;
                         if !acc * 2 >= total then begin
                           res := c;
                           raise Exit
                         end)
                       r.r_latency
                   with Exit -> ());
                  !res
                in
                let mx_l =
                  List.fold_left (fun a (c, _) -> max a c) 0.0 r.r_latency
                in
                Fmt.str
                  "<tr><td>%s</td><td>%d</td><td>%.1f</td><td>%.1f</td></tr>"
                  (esc (label r)) total median mx_l)
              runs))
    in
    Fmt.str
      "<section class=\"panel\"><h2>Detection latency</h2><p class=\"sub\">CDF of detection latency over detected injections (site-mean cycles, weighted by per-site detections).</p>%s%s%s%s</section>"
      (Buffer.contents buf)
      (legend
         (List.mapi
            (fun i r ->
              (label r, series_vars.(i mod Array.length series_vars)))
            shown))
      note table
  end

(* Convergence panel: campaign SDC estimate vs samples spent, one line
   per run with its Wilson 95% band as a translucent polygon — the
   live view of how much certainty each additional sample bought. *)
let convergence_panel runs =
  let runs = List.filter (fun r -> r.r_trace <> []) runs in
  if runs = [] then
    "<section class=\"panel\"><h2>Convergence</h2><p class=\"sub\">No \
     confidence telemetry (stats.jsonl) in this set.</p></section>"
  else begin
    let shown = List.filteri (fun i _ -> i < 8) runs in
    let dropped = List.length runs - List.length shown in
    let w = chart_w and h = 240 in
    let mx = 56 and my = 12 and mb = 28 in
    let pw = w - mx - 12 and ph = h - my - mb in
    let max_x =
      List.fold_left
        (fun a r ->
          List.fold_left (fun a (s, _, _, _) -> max a s) a r.r_trace)
        1 shown
    in
    let max_y =
      List.fold_left
        (fun a r ->
          List.fold_left (fun a (_, _, _, hi) -> Float.max a hi) a r.r_trace)
        0.01 shown
    in
    let max_y = Float.min 1.0 (max_y *. 1.05) in
    let px s = mx + (s * pw / max_x) in
    let py v =
      my + ph - int_of_float (v /. max_y *. float_of_int ph)
    in
    let buf = Buffer.create 4096 in
    Buffer.add_string buf
      (Fmt.str
         "<svg viewBox=\"0 0 %d %d\" role=\"img\" aria-label=\"SDC estimate convergence\">"
         w h);
    List.iter
      (fun q ->
        let y = my + ph - int_of_float (float_of_int ph *. q) in
        Buffer.add_string buf
          (Fmt.str
             "<line x1=\"%d\" y1=\"%d\" x2=\"%d\" y2=\"%d\" stroke=\"var(--grid)\"/><text class=\"axis-label\" x=\"%d\" y=\"%d\" text-anchor=\"end\">%.3f</text>"
             mx y (mx + pw) y (mx - 6) (y + 4) (q *. max_y)))
      [ 0.0; 0.25; 0.5; 0.75; 1.0 ];
    Buffer.add_string buf
      (Fmt.str
         "<text class=\"axis-label\" x=\"%d\" y=\"%d\">samples spent (SDC probability with Wilson 95%% band)</text>"
         mx (h - 8));
    Buffer.add_string buf
      (Fmt.str
         "<text class=\"axis-label\" x=\"%d\" y=\"%d\" text-anchor=\"end\">%d</text>"
         (mx + pw) (my + ph + 14) max_x);
    List.iteri
      (fun i r ->
        let color = series_vars.(i mod Array.length series_vars) in
        (* CI band: upper bound forward, lower bound back. *)
        let band = Buffer.create 256 in
        List.iter
          (fun (s, _, _, hi) ->
            Buffer.add_string band (Fmt.str "%d,%d " (px s) (py hi)))
          r.r_trace;
        List.iter
          (fun (s, _, lo, _) ->
            Buffer.add_string band (Fmt.str "%d,%d " (px s) (py lo)))
          (List.rev r.r_trace);
        Buffer.add_string buf
          (Fmt.str
             "<polygon points=\"%s\" fill=\"%s\" fill-opacity=\"0.18\" stroke=\"none\"/>"
             (String.trim (Buffer.contents band))
             color);
        let pts = Buffer.create 256 in
        List.iter
          (fun (s, p, _, _) ->
            Buffer.add_string pts (Fmt.str "%d,%d " (px s) (py p)))
          r.r_trace;
        Buffer.add_string buf
          (Fmt.str
             "<polyline points=\"%s\" fill=\"none\" stroke=\"%s\" stroke-width=\"2\" stroke-linejoin=\"round\"><title>%s</title></polyline>"
             (String.trim (Buffer.contents pts))
             color (esc (label r))))
      shown;
    Buffer.add_string buf "</svg>";
    let note =
      if dropped > 0 then
        Fmt.str
          "<p class=\"sub\">%d more runs omitted (series cap 8); see the data table.</p>"
          dropped
      else ""
    in
    let table =
      Fmt.str
        "<details><summary>Data table</summary><table><tr><th>run</th><th>samples</th><th>final p</th><th>final 95%% interval</th></tr>%s</table></details>"
        (String.concat ""
           (List.map
              (fun r ->
                let spent, p, lo, hi =
                  List.fold_left (fun _ last -> last) (0, 0.0, 0.0, 1.0)
                    r.r_trace
                in
                Fmt.str
                  "<tr><td>%s</td><td>%d</td><td>%.4f</td><td>[%.4f, %.4f]</td></tr>"
                  (esc (label r)) spent p lo hi)
              runs))
    in
    Fmt.str
      "<section class=\"panel\"><h2>Convergence</h2><p class=\"sub\">Campaign SDC estimate vs samples spent; shaded region is the Wilson 95%% confidence band.</p>%s%s%s%s</section>"
      (Buffer.contents buf)
      (legend
         (List.mapi
            (fun i r ->
              (label r, series_vars.(i mod Array.length series_vars)))
            shown))
      note table
  end

(* Panel 3: per-site vulnerability heat strips — one row per traced
   run, one cell per (eligible or hit) static site, sequential blue by
   SDC rate. *)
let vulnmap_panel runs =
  let runs = List.filter (fun r -> r.r_sites <> []) runs in
  if runs = [] then
    "<section class=\"panel\"><h2>Vulnerability map</h2><p class=\"sub\">No traced runs (vulnmap.jsonl) in this set.</p></section>"
  else begin
    let row_h = 30 and strip_h = 16 in
    let h = (row_h * List.length runs) + 8 in
    let max_rate =
      List.fold_left
        (fun a r ->
          List.fold_left
            (fun a s ->
              if s.si_samples > 0 then
                max a (float_of_int s.si_sdc /. float_of_int s.si_samples)
              else a)
            a r.r_sites)
        0.0 runs
    in
    let buf = Buffer.create 4096 in
    Buffer.add_string buf
      (Fmt.str "<svg viewBox=\"0 0 %d %d\" role=\"img\" aria-label=\"Per-site SDC heat strips\">" chart_w h);
    List.iteri
      (fun i r ->
        let y = i * row_h in
        let n = List.length r.r_sites in
        let cell_w = float_of_int plot_w /. float_of_int n in
        Buffer.add_string buf
          (Fmt.str "<text class=\"rowlabel\" x=\"0\" y=\"%d\">%s</text>"
             (y + strip_h - 2) (esc (label r)));
        List.iteri
          (fun k s ->
            let rate =
              if s.si_samples > 0 then
                float_of_int s.si_sdc /. float_of_int s.si_samples
              else 0.0
            in
            let x =
              label_w + int_of_float (float_of_int k *. cell_w)
            in
            let w =
              max 1
                (int_of_float (float_of_int (k + 1) *. cell_w)
                - int_of_float (float_of_int k *. cell_w))
            in
            Buffer.add_string buf
              (Fmt.str
                 "<rect x=\"%d\" y=\"%d\" width=\"%d\" height=\"%d\" fill=\"%s\"><title>#%d %s (%s): sdc %d/%d</title></rect>"
                 x y w strip_h
                 (heat_color rate max_rate)
                 s.si_index (esc s.si_opcode) (esc s.si_prov) s.si_sdc
                 s.si_samples))
          r.r_sites)
      runs;
    Buffer.add_string buf "</svg>";
    let table =
      Fmt.str
        "<details><summary>Most vulnerable sites</summary><table><tr><th>run</th><th>site</th><th>opcode</th><th>sdc</th><th>samples</th></tr>%s</table></details>"
        (String.concat ""
           (List.concat_map
              (fun r ->
                List.filter (fun s -> s.si_sdc > 0) r.r_sites
                |> List.sort (fun a b ->
                       compare (b.si_sdc, a.si_index) (a.si_sdc, b.si_index))
                |> List.filteri (fun i _ -> i < 5)
                |> List.map (fun s ->
                       Fmt.str
                         "<tr><td>%s</td><td>#%d</td><td>%s</td><td>%d</td><td>%d</td></tr>"
                         (esc (label r)) s.si_index (esc s.si_opcode)
                         s.si_sdc s.si_samples))
              runs))
    in
    Fmt.str
      "<section class=\"panel\"><h2>Vulnerability map</h2><p class=\"sub\">Per static-site SDC rate (left&#8594;right in program order; darker = more SDCs; scale shared, max %.0f%%).</p>%s%s</section>"
      (max_rate *. 100.0) (Buffer.contents buf) table
  end

(* Panel 4: protection-overhead split — golden-run cycles by
   provenance, one stacked bar per run. *)
let overhead_panel runs =
  let row_h = 26 and bar_h = 16 in
  let h = (row_h * List.length runs) + 8 in
  let max_total =
    List.fold_left
      (fun a r ->
        max a
          (List.fold_left (fun a (_, c) -> a +. c) 0.0
             r.r_manifest.Manifest.profile))
      1.0 runs
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Fmt.str "<svg viewBox=\"0 0 %d %d\" role=\"img\" aria-label=\"Overhead split\">"
       chart_w h);
  List.iteri
    (fun i r ->
      let y = i * row_h in
      Buffer.add_string buf
        (Fmt.str "<text class=\"rowlabel\" x=\"0\" y=\"%d\">%s</text>"
           (y + bar_h - 2) (esc (label r)));
      let x = ref label_w in
      List.iter
        (fun p ->
          let c =
            Option.value ~default:0.0
              (List.assoc_opt p r.r_manifest.Manifest.profile)
          in
          if c > 0.0 then begin
            let w =
              int_of_float (c /. max_total *. float_of_int plot_w)
            in
            let w_draw = max 1 (w - 2) in
            Buffer.add_string buf
              (Fmt.str
                 "<rect x=\"%d\" y=\"%d\" width=\"%d\" height=\"%d\" rx=\"3\" fill=\"%s\"><title>%s: %.1f cycles</title></rect>"
                 !x y w_draw bar_h (prov_var p) (esc p) c);
            x := !x + w
          end)
        prov_order)
    runs;
  Buffer.add_string buf "</svg>";
  let table =
    Fmt.str
      "<details><summary>Data table</summary><table><tr><th>run</th>%s<th>total</th></tr>%s</table></details>"
      (String.concat ""
         (List.map (fun p -> Fmt.str "<th>%s</th>" (esc p)) prov_order))
      (String.concat ""
         (List.map
            (fun r ->
              let total =
                List.fold_left (fun a (_, c) -> a +. c) 0.0
                  r.r_manifest.Manifest.profile
              in
              Fmt.str "<tr><td>%s</td>%s<td>%.1f</td></tr>" (esc (label r))
                (String.concat ""
                   (List.map
                      (fun p ->
                        Fmt.str "<td>%.1f</td>"
                          (Option.value ~default:0.0
                             (List.assoc_opt p r.r_manifest.Manifest.profile)))
                      prov_order))
                total)
            runs))
  in
  Fmt.str
    "<section class=\"panel\"><h2>Overhead split</h2><p class=\"sub\">Golden-run cycles by instruction provenance (common scale across runs).</p>%s%s%s</section>"
    (Buffer.contents buf)
    (legend (List.map (fun p -> (p, prov_var p)) prov_order))
    table

(* Panel 5: campaign trace — one packed icicle (flamegraph layout) per
   run from trace.jsonl.  Worker logical clocks are process-local, so
   spans are packed by relative weight (a span's logical duration, or
   the sum of its children's weights when larger) rather than placed
   on an absolute time axis; the wall sidecar, when present, only
   feeds the hover titles and the hot-span table. *)

let trace_row_h = 20
let trace_bar_h = 16

(* Per-process colors: categorical, first-seen order, cycled. *)
let trace_palette =
  [| "#4477aa"; "#ee6677"; "#228833"; "#ccbb44"; "#66ccee"; "#aa3377" |]

let load_trace_doc dir file parse =
  let path = Filename.concat dir file in
  if not (Sys.file_exists path) then []
  else
    match Metrics.read_lines path with
    | _header :: records -> (
      match Trace.rows_of_lines records with
      | Ok rows -> parse rows
      | Error _ -> [])
    | [] -> []

let trace_panel runs =
  let data =
    List.map
      (fun r ->
        ( r,
          load_trace_doc r.r_dir Store.trace_file Trace.spans_of_rows,
          load_trace_doc r.r_dir Store.trace_wall_file Trace.walls_of_rows ))
      runs
  in
  if List.for_all (fun (_, spans, _) -> spans = []) data then ""
  else begin
    let buf = Buffer.create 8192 in
    let hot = ref [] in
    List.iter
      (fun (r, spans, walls) ->
        if spans <> [] then begin
          let tree = Trace.tree ~spans ~walls in
          List.iter
            (fun (w : Trace.wall) ->
              hot := (label r, w) :: !hot)
            walls;
          let procs = ref [] in
          let proc_color p =
            (match List.assoc_opt p !procs with
            | Some c -> c
            | None ->
              let c =
                trace_palette.(List.length !procs
                               mod Array.length trace_palette)
              in
              procs := !procs @ [ (p, c) ];
              c)
          in
          let kids = Trace.children tree in
          let rec weight (s : Trace.span) =
            let own = s.Trace.sp_l_end - s.Trace.sp_l_start in
            let below =
              List.fold_left (fun a c -> a +. weight c) 0.0 (kids s)
            in
            Float.max 1.0 (Float.max (float_of_int own) below)
          in
          let roots = Trace.roots tree in
          let depth = ref 1 in
          let rec measure d (s : Trace.span) =
            if d + 1 > !depth then depth := d + 1;
            List.iter (measure (d + 1)) (kids s)
          in
          List.iter (measure 0) roots;
          let h = !depth * trace_row_h in
          Buffer.add_string buf
            (Fmt.str
               "<h3>%s</h3><svg viewBox=\"0 0 %d %d\" role=\"img\" aria-label=\"Trace icicle for %s\">"
               (esc (label r)) chart_w h (esc (label r)));
          let rec emit d x w (s : Trace.span) =
            if w >= 1.5 then begin
              let title =
                let counters =
                  match s.Trace.sp_counters with
                  | [] -> ""
                  | cs ->
                    " ["
                    ^ String.concat ", "
                        (List.map (fun (k, v) -> Fmt.str "%s=%d" k v) cs)
                    ^ "]"
                in
                let wall =
                  match Trace.wall_of tree s with
                  | Some wl ->
                    Fmt.str " wall %.1f ms, cpu %.1f ms"
                      ((wl.Trace.wl_end -. wl.Trace.wl_start) *. 1e3)
                      ((wl.Trace.wl_cpu_user +. wl.Trace.wl_cpu_sys) *. 1e3)
                  | None -> ""
                in
                Fmt.str "%s (%s): %d steps%s%s" s.Trace.sp_name
                  s.Trace.sp_proc
                  (s.Trace.sp_l_end - s.Trace.sp_l_start)
                  wall counters
              in
              Buffer.add_string buf
                (Fmt.str
                   "<rect x=\"%.1f\" y=\"%d\" width=\"%.1f\" height=\"%d\" rx=\"2\" fill=\"%s\"><title>%s</title></rect>"
                   x
                   (d * trace_row_h)
                   (Float.max 1.0 (w -. 1.0))
                   trace_bar_h
                   (proc_color s.Trace.sp_proc)
                   (esc title));
              if w >= 40.0 then
                Buffer.add_string buf
                  (Fmt.str
                     "<text class=\"spanlabel\" x=\"%.1f\" y=\"%d\">%s</text>"
                     (x +. 3.0)
                     ((d * trace_row_h) + trace_bar_h - 4)
                     (esc s.Trace.sp_name));
              let total = weight s in
              let cx = ref x in
              List.iter
                (fun c ->
                  let cw = w *. weight c /. total in
                  emit (d + 1) !cx cw c;
                  cx := !cx +. cw)
                (kids s)
            end
          in
          let rtotal =
            List.fold_left (fun a s -> a +. weight s) 0.0 roots
          in
          let x = ref 0.0 in
          List.iter
            (fun s ->
              let w = float_of_int chart_w *. weight s /. rtotal in
              emit 0 !x w s;
              x := !x +. w)
            roots;
          Buffer.add_string buf "</svg>";
          Buffer.add_string buf
            (legend (List.map (fun (p, c) -> (p, c)) !procs))
        end)
      data;
    let table =
      let rows =
        List.sort
          (fun (_, (a : Trace.wall)) (_, b) ->
            compare
              (b.Trace.wl_end -. b.Trace.wl_start)
              (a.Trace.wl_end -. a.Trace.wl_start))
          !hot
        |> List.filteri (fun i _ -> i < 10)
        |> List.map (fun (lbl, (w : Trace.wall)) ->
               Fmt.str
                 "<tr><td>%s</td><td>%s</td><td>%s</td><td>%.1f</td><td>%.1f</td><td>%d</td></tr>"
                 (esc lbl) (esc w.Trace.wl_name) (esc w.Trace.wl_proc)
                 ((w.Trace.wl_end -. w.Trace.wl_start) *. 1e3)
                 ((w.Trace.wl_cpu_user +. w.Trace.wl_cpu_sys) *. 1e3)
                 w.Trace.wl_maxrss_kb)
      in
      if rows = [] then ""
      else
        Fmt.str
          "<details><summary>Hottest spans by wall time</summary><table><tr><th>run</th><th>span</th><th>proc</th><th>wall ms</th><th>cpu ms</th><th>maxrss kB</th></tr>%s</table></details>"
          (String.concat "" rows)
    in
    Fmt.str
      "<section class=\"panel\"><h2>Campaign trace</h2><p class=\"sub\">Packed span icicle per run (width &#8733; logical steps; hover for wall/CPU from the sidecar; colors by process).</p>%s%s</section>"
      (Buffer.contents buf) table
  end

(* ------------------------------------------------------------------ *)
(* Document.                                                           *)
(* ------------------------------------------------------------------ *)

let render (runs : run list) : string =
  let summary =
    let total_samples =
      List.fold_left (fun a r -> a + r.r_manifest.Manifest.samples) 0 runs
    in
    Fmt.str
      "<p class=\"sub\">%d run%s, %d samples total. Seeds and shard maps in each run&#8217;s manifest.json.</p>"
      (List.length runs)
      (if List.length runs = 1 then "" else "s")
      total_samples
  in
  String.concat ""
    [
      "<!DOCTYPE html><html lang=\"en\"><head><meta charset=\"utf-8\">";
      "<meta name=\"viewport\" content=\"width=device-width, initial-scale=1\">";
      "<title>ferrum campaign dashboard</title><style>";
      style;
      "</style></head><body>";
      "<h1>ferrum campaign dashboard</h1>";
      summary;
      outcomes_panel runs;
      convergence_panel runs;
      latency_panel runs;
      vulnmap_panel runs;
      overhead_panel runs;
      trace_panel runs;
      "</body></html>";
    ]

let render_dir dir : (string, string) result =
  Result.map render (load_runs dir)
