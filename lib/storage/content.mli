(** Sector content identity.

    The simulator tracks {e what} a sector holds rather than its bytes:
    whether it is untouched, carries sector [lba] of the golden OS image,
    or carries data from a specific guest write. This makes end-to-end
    correctness properties checkable — e.g. "after deployment every
    sector equals the server image except where the guest wrote"
    (§3.1/Figure 1d) and "a late background-copy fill must never clobber
    a newer guest write" (§3.3's bitmap consistency argument). *)

type t =
  | Zero  (** never written; a fresh local disk *)
  | Image of int  (** sector [lba] of the golden image *)
  | Data of int  (** guest-written data, identified by a unique tag *)
  | Blob of string
      (** actual bytes, for the rare data whose contents matter to the
          simulation itself (e.g. the VMM's persisted fill bitmap) *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

val image : int -> t
(** Interned [Image lba]: hot constructors come from a process-wide
    cache so repeated materialization of the same sector (every replica
    serving the golden image) allocates nothing. Structurally identical
    to [Image lba]. *)

val data : int -> t
(** Interned [Data tag]; see {!image}. *)

(** Pooled sector-content scratch arrays for request-scoped buffers
    (AoE fragments, whole-command reads, DMA staging). [alloc n] yields
    an all-[Zero] array of length [n] exactly like [Array.make]; the
    owner hands it back with [release] once no live reference remains —
    the array is cleared and reused. Dropping a scratch array to the GC
    instead of releasing is always safe, merely unpooled. *)
module Scratch : sig
  val alloc : int -> t array
  val release : t array -> unit

  val free_count : int -> int
  (** Arrays of length [n] currently pooled (for tests). *)
end

val image_sectors : lba:int -> count:int -> t array
(** [count] consecutive image sectors starting at [lba]. *)

val data_sectors : count:int -> t array
(** [count] sectors of a single fresh guest write (same tag). *)

val zeroes : count:int -> t array
