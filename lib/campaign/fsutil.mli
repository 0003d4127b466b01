(** Small filesystem helpers shared by the campaign modules. *)

(** Create a directory and any missing parents. *)
val mkdir_p : string -> unit

(** Remove a file or directory tree; missing paths are fine. *)
val rm_rf : string -> unit

(** Recursive file/directory copy; destination parents are created. *)
val copy_tree : string -> string -> unit

(** [rename src dst] — [Unix.rename] with an EXDEV fallback: across
    mounts the tree is copied to a temporary sibling of [dst], renamed
    into place, and [src] removed, so the effect at [dst] is atomic
    either way. *)
val rename : string -> string -> unit

(** Atomic whole-file write: temp file, then rename into place. *)
val write_file : string -> string -> unit

(** Read a whole file as bytes. *)
val read_file : string -> string

(** Lines of a file that are terminated by ['\n'] ([[]] when the file
    does not exist): an unterminated final fragment — a line still
    being appended, or torn by a crash — is dropped. *)
val complete_lines : string -> string list
