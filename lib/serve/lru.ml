(* Fixed-capacity least-recently-used table: an MRU-first association
   list, which is all a handful of entries needs. *)

type ('k, 'v) t = {
  capacity : int;
  mutable entries : ('k * 'v) list; (* most recently used first *)
  mutable hits : int;
  mutable misses : int;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Lru.create: capacity must be >= 1";
  { capacity; entries = []; hits = 0; misses = 0 }

let find_or_add t key build =
  match List.assoc_opt key t.entries with
  | Some v ->
    t.hits <- t.hits + 1;
    t.entries <- (key, v) :: List.remove_assoc key t.entries;
    Ok v
  | None -> (
    t.misses <- t.misses + 1;
    match build () with
    | Error _ as e -> e
    | Ok v ->
      t.entries <-
        List.filteri (fun i _ -> i < t.capacity) ((key, v) :: t.entries);
      Ok v)

let hits t = t.hits
let misses t = t.misses
