(** Self-contained HTML dashboard over campaign run directories.

    A single file with no external assets: five inline-SVG panels —
    outcome stacked bars per workload × technique, SDC-estimate
    convergence with Wilson confidence bands, detection-latency CDFs,
    per-site vulnerability heat strips, and the protection-overhead
    provenance split — rendered from the JSONL/manifest files a
    finished [ferrum campaign] run directory contains.

    The run accessors and panel builders are exposed so other pages
    (the serve daemon's cross-run history) can reuse them. *)

(** One loaded run directory. *)
type run

(** Load one run directory (must contain [manifest.json] and
    [injection.jsonl]; [vulnmap.jsonl] is optional). *)
val load_run : string -> (run, string) result

(** {1 Run accessors} *)

(** One vulnerability-map site of a traced run. *)
type site = {
  si_index : int;
  si_opcode : string;
  si_prov : string;
  si_samples : int;
  si_sdc : int;
  si_detected : int;
}

val manifest : run -> Ferrum_campaign.Manifest.t

(** ["BENCH.TECH"]. *)
val label : run -> string

(** Outcome class names, display order. *)
val classes : string list

val class_count : run -> string -> int

(** (site mean detection-latency cycles, detected count), ascending —
    the site-weighted latency distribution; empty when untraced. *)
val latency : run -> (float * int) list

(** Vulnerability-map sites in static-index order; empty when
    untraced. *)
val sites : run -> site list

(** {1 Page building blocks} *)

(** HTML-escape text content. *)
val esc : string -> string

(** The shared stylesheet (light/dark). *)
val style : string

(** {1 Panels} *)

val outcomes_panel : run list -> string

val latency_panel : run list -> string
val vulnmap_panel : run list -> string

(** The dashboard document over [dir] itself (if it is a run
    directory) or every immediate subdirectory with a manifest, sorted by
    name. *)
val render_dir : string -> (string, string) result
