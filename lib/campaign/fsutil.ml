(* Small filesystem helpers shared by the campaign modules. *)

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir)
  then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let copy_file src dst =
  let ic = open_in_bin src in
  let len = in_channel_length ic in
  let data = really_input_string ic len in
  close_in ic;
  let oc = open_out_bin dst in
  output_string oc data;
  close_out oc

(* Recursive copy; [dst] must not exist yet (its parents are created). *)
let rec copy_tree src dst =
  match (Unix.lstat src).Unix.st_kind with
  | Unix.S_DIR ->
    mkdir_p dst;
    Array.iter
      (fun f -> copy_tree (Filename.concat src f) (Filename.concat dst f))
      (Sys.readdir src)
  | _ ->
    mkdir_p (Filename.dirname dst);
    copy_file src dst

(* Rename that survives EXDEV: when [src] and [dst] live on different
   mounts (the run store on one volume, the scratch directory on
   another) a plain rename fails, so fall back to copying the tree to a
   temporary sibling of [dst] — same filesystem as [dst] — renaming
   that into place, and only then removing [src].  The visible effect
   at [dst] is atomic either way. *)
let rename src dst =
  try Unix.rename src dst
  with Unix.Unix_error (Unix.EXDEV, _, _) ->
    let tmp = Printf.sprintf "%s.%d.exdev-tmp" dst (Unix.getpid ()) in
    rm_rf tmp;
    copy_tree src tmp;
    Unix.rename tmp dst;
    rm_rf src

(* Atomic whole-file write: temp file in place, then rename.  The temp
   is a sibling of the target, so the rename itself cannot cross a
   mount; [rename] keeps even pathological layouts safe.  The temp name
   carries the writer's pid: the daemon parent and a runner child may
   both rewrite the same file (e.g. the store index), and a shared temp
   path would let the two writers interleave truncate/write/rename and
   publish a torn result. *)
let write_file path content =
  mkdir_p (Filename.dirname path);
  let tmp = Printf.sprintf "%s.%d.tmp" path (Unix.getpid ()) in
  let oc = open_out tmp in
  output_string oc content;
  close_out oc;
  rename tmp path

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

(* Complete lines of [path] ([] when it does not exist): split on '\n'
   and drop the final element — the empty artifact after a terminated
   last line, or an unterminated fragment an appender is still writing
   (or a crash tore).  Either way a torn record is never returned. *)
let complete_lines path =
  if not (Sys.file_exists path) then []
  else
    match List.rev (String.split_on_char '\n' (read_file path)) with
    | _last :: rev_rest -> List.rev rev_rest
    | [] -> []
