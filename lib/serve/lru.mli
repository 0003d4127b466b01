(** A fixed-capacity table that forgets its least recently used entry.

    Built for a handful of entries (the serve daemon's resolved
    workloads), so it is a most-recently-used-first list: lookups and
    inserts are linear in the capacity. *)

type ('k, 'v) t

(** Raises [Invalid_argument] unless [capacity >= 1]. *)
val create : capacity:int -> ('k, 'v) t

(** [find_or_add t key build] returns the value stored under [key]
    (a hit, which makes it the most recently used) or runs [build]
    (a miss).  An [Ok] result is stored, evicting the least recently
    used entry when the table is full; an [Error] is returned and not
    stored, so the next lookup builds again.  Keys compare
    structurally. *)
val find_or_add :
  ('k, 'v) t -> 'k -> (unit -> ('v, 'e) result) -> ('v, 'e) result

(** Lookups answered from the table. *)
val hits : ('k, 'v) t -> int

(** Lookups that ran [build], failed builds included. *)
val misses : ('k, 'v) t -> int
