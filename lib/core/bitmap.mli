(** Per-sector fill bitmap (§3.3).

    Tracks which local-disk sectors already hold valid data (copied from
    the server or written by the guest). The check-and-set operations
    are the consistency mechanism: a background-copy fill must
    atomically skip any sector the guest has written in the meantime.
    [to_bytes]/[of_bytes] serialize the map for the on-disk save across
    reboots the paper describes. *)

type t

val create : sectors:int -> t
val sectors : t -> int

val is_filled : t -> int -> bool

val set_filled : t -> int -> bool
(** Mark one sector filled; returns [true] if it was previously empty
    (i.e. the caller "won" the fill). *)

val fill_range : t -> lba:int -> count:int -> int
(** Mark a range filled; returns how many sectors were newly filled. *)

(** {2 Scans}

    The scans below pass over whole 64-sector words and whole bytes that
    hold nothing they look for, testing single sectors only at a run's
    edges, so each costs O(span / 64) plus the runs it returns. They
    never read past [sectors t], so padding bits loaded by {!of_bytes}
    stay invisible. *)

val empty_subranges : t -> lba:int -> count:int -> (int * int) list
(** Maximal empty [(lba, count)] sub-ranges within a range, ascending.
    [[]] when [count <= 0]; otherwise raises [Invalid_argument] if the
    range leaves the map. *)

val range_filled : t -> lba:int -> count:int -> bool
(** [range_filled t ~lba ~count] is [empty_subranges t ~lba ~count = []]
    (bounds checks included) without building the list: it allocates
    nothing. *)

(** The two seeks below walk the empty runs of a window [\[from,
    limit)] without building a list, and allocate nothing: a run starts
    at [s = next_empty t ~from ~limit] (none when [s = limit]) and ends
    at [next_filled t ~from:(s + 1) ~limit]. Sectors at or past the end
    of the map count as filled, so a window may run past it: its runs
    are those of the part inside the map. Both return [limit] when
    [from >= limit] and raise [Invalid_argument] for a negative [from]
    otherwise. *)

val next_empty : t -> from:int -> limit:int -> int
(** The first empty sector in [\[from, limit)], or [limit]. *)

val next_filled : t -> from:int -> limit:int -> int
(** The first filled sector in [\[from, limit)] (the end of the map when
    the window runs past it and no sector before is filled), or
    [limit]. *)

val filled_count : t -> int
val is_complete : t -> bool

val find_empty_run : t -> from:int -> max:int -> (int * int) option
(** First empty run at-or-after [from] (wrapping once), clipped to
    [max] sectors, and at least one sector long even when [max <= 1].
    A [from] outside the map searches from 0. The run never wraps past
    the last sector. [None] iff the map is complete. *)

val to_bytes : t -> Bytes.t
val of_bytes : sectors:int -> Bytes.t -> t
(** Raises [Invalid_argument] if the buffer is the wrong size. *)

val save_sectors : sectors:int -> int
(** Disk sectors needed to persist a map covering [sectors]. *)

val to_blob_sectors : t -> Bmcast_storage.Content.t array
(** Serialize into 512-byte {!Bmcast_storage.Content.Blob} sectors for
    the on-disk save across reboots (§3.3). *)

val load_blob_sectors : t -> Bmcast_storage.Content.t array -> unit
(** Restore in place from a saved region. Raises [Invalid_argument] on
    size mismatch or non-bitmap content. *)
