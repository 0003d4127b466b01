(* Plain-text rendering of the paper's tables and bar-chart figures. *)

let pad width s =
  let n = String.length s in
  if n >= width then s else s ^ String.make (width - n) ' '

(* Render a table with a header row; column widths fit the content. *)
let table ~header ~rows =
  let all = header :: rows in
  let cols = List.length header in
  let width c =
    List.fold_left (fun acc row -> max acc (String.length (List.nth row c))) 0 all
  in
  let widths = List.init cols width in
  let line ch =
    "+" ^ String.concat "+" (List.map (fun w -> String.make (w + 2) ch) widths)
    ^ "+"
  in
  let render_row row =
    "| "
    ^ String.concat " | " (List.mapi (fun c cell -> pad (List.nth widths c) cell) row)
    ^ " |"
  in
  String.concat "\n"
    ([ line '-'; render_row header; line '=' ]
    @ List.map render_row rows
    @ [ line '-' ])

(* A horizontal bar scaled to [max_value] over [width] characters. *)
let bar ?(width = 32) ~max_value v =
  if max_value <= 0.0 then ""
  else
    let n = int_of_float (Float.round (v /. max_value *. float_of_int width)) in
    let n = max 0 (min width n) in
    String.make n '#' ^ String.make (width - n) ' '

(* Grouped horizontal bar chart: one group per row, one bar per series.
   [fmt_value] renders the numeric label after each bar. *)
let grouped_bars ~title ~series_names ~fmt_value ~max_value rows =
  let label_w =
    List.fold_left (fun acc (label, _) -> max acc (String.length label)) 0 rows
  in
  let series_w =
    List.fold_left (fun acc s -> max acc (String.length s)) 0 series_names
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (title ^ "\n");
  List.iter
    (fun (label, values) ->
      Buffer.add_string buf (pad label_w label ^ "\n");
      List.iteri
        (fun i v ->
          Buffer.add_string buf
            (Printf.sprintf "  %s |%s| %s\n"
               (pad series_w (List.nth series_names i))
               (bar ~max_value v) (fmt_value v)))
        values)
    rows;
  Buffer.contents buf

let percent v = Printf.sprintf "%5.1f%%" (100.0 *. v)
