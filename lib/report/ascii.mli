(** Plain-text rendering of the paper's tables and bar-chart figures. *)

(** Render a bordered table; column widths fit the content. *)
val table : header:string list -> rows:string list list -> string

(** A horizontal bar of '#' scaled to [max_value] over [width] (default
    32) characters. *)
val bar : ?width:int -> max_value:float -> float -> string

(** Grouped horizontal bar chart: one group per row, one labelled bar
    per series (used for the paper's Figs. 10-11). *)
val grouped_bars :
  title:string ->
  series_names:string list ->
  fmt_value:(float -> string) ->
  max_value:float ->
  (string * float list) list ->
  string

(** Format a ratio as a fixed-width percentage, e.g. [" 29.8%"]. *)
val percent : float -> string
