(** Range map from LBA extents to [int] values.

    Stores disk contents compactly: a 67-million-sector disk filled
    mostly by large sequential background-copy writes stays a handful of
    extents. Values are uniform per extent; {!Disk} stores
    {!Content.run_of} values, which stay uniform over a run of
    consecutive image sectors. The extents live in sorted [int] arrays:
    a lookup is a binary search, an update shifts the extents after it,
    and neither allocates unless the arrays grow. *)

type t

val create : unit -> t

val set : t -> lba:int -> count:int -> int -> unit
(** Assign value to [\[lba, lba+count)], overwriting and splitting any
    overlapped extents. Adjacent extents with equal values merge. *)

val clear_range : t -> lba:int -> count:int -> unit
(** Remove any mapping in the range. *)

val get : t -> int -> int option
(** Value at a single LBA. *)

val iter_range :
  t ->
  lba:int ->
  count:int ->
  'a ->
  f:('a -> off:int -> lba:int -> count:int -> int -> unit) ->
  unit
(** [iter_range t ~lba ~count x ~f] calls [f x ~off ~lba ~count v] on
    every mapped piece of [\[lba, lba+count)], each an extent clipped to
    the range, in ascending LBA order; [off] is the piece's offset from
    the range's start, and the LBAs between pieces are unmapped. [x] is
    passed through, so a caller's [f] can be a closed top-level function
    and a call builds no closure. [f] must not modify the map. *)

val extent_count : t -> int
(** Number of stored extents (a compactness measure). *)

val covered : t -> int
(** Total number of mapped LBAs. *)

val covered_range : t -> lba:int -> count:int -> int
(** Mapped LBAs within [\[lba, lba+count)] — [count] means the whole
    range is mapped. The extent-accounting query behind the peer-serve
    guard: a peer only serves ranges its local disk fully holds. *)
