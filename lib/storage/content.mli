(** Sector content identity.

    The simulator tracks {e what} a sector holds rather than its bytes:
    whether it is untouched, carries sector [lba] of the golden OS image,
    or carries data from a specific guest write. This makes end-to-end
    correctness properties checkable — e.g. "after deployment every
    sector equals the server image except where the guest wrote"
    (§3.1/Figure 1d) and "a late background-copy fill must never clobber
    a newer guest write" (§3.3's bitmap consistency argument).

    A sector is an immediate int, so a [t array] (a DMA buffer, an AoE
    fragment, a disk read) is a flat int array: building one allocates
    no block per sector, and storing into one needs no write barrier.
    Code that looks inside a sector matches on its {!view}. *)

type t = private int
(** A two-bit kind over a 61-bit payload: the image LBA, the write tag,
    or an interned blob id. Two sectors are {!equal} iff their views
    are structurally equal. *)

type view =
  | Zero  (** never written; a fresh local disk *)
  | Image of int  (** sector [lba] of the golden image *)
  | Data of int  (** guest-written data, identified by a unique tag *)
  | Blob of string
      (** actual bytes, for the rare data whose contents matter to the
          simulation itself (e.g. the VMM's persisted fill bitmap) *)

val zero : t

val image : int -> t
(** Sector [lba] of the image. Raises [Invalid_argument] unless
    [-2{^60} <= lba < 2{^60}]. *)

val data : int -> t
(** Guest data with write tag [tag]; same range as {!image}. *)

val blob : string -> t
(** Interned bytes: equal strings give equal sectors. The intern table
    is process-wide and only grows; blobs are only the VMM's saved fill
    bitmap, one 512-byte string per distinct sector ever saved. *)

val view : t -> view
val of_view : view -> t
(** [view (of_view v) = v]; raises as {!image}/{!data} do. *)

val equal : t -> t -> bool
val pp : Format.formatter -> view -> unit

(** {2 Copies}

    [Array.blit] and [Array.fill] write every element through the write
    barrier when the destination is in the major heap, even an int
    array; these are plain loops. Data-path copies go through them. *)

val blit : t array -> int -> t array -> int -> int -> unit
(** As [Array.blit], overlapping windows included. Raises
    [Invalid_argument] for the windows [Array.blit] rejects. *)

val fill : t array -> int -> int -> t -> unit
(** As [Array.fill]. *)

(** {2 Runs}

    A disk stores its contents as extents of one run value each, so a
    run value names a sector independently of its position. *)

val run_of : t -> pos:int -> int
(** [run_of c ~pos]: the run value of sector [c] stored at disk position
    [pos]. Neighbouring positions share it when they hold one repeated
    sector or image sectors whose LBAs advance with the position
    (modulo [2{^61}]); zero's run value is 0. *)

val fill_run : t array -> int -> int -> run:int -> pos:int -> unit
(** [fill_run a off len ~run ~pos] stores into [a.(off)] ...
    [a.(off+len-1)] the sectors that run value [run] gives positions
    [pos] ... [pos+len-1], as {!fill} checks its window. *)

(** Pooled sector-content scratch arrays for request-scoped buffers,
    shared process-wide. [alloc n] yields an array whose first [n]
    sectors are {!zero}, as [Array.make n zero] would: exactly [n] long
    for [n <= 256] (AoE fragments, multicast fill copies), and the
    power-of-two size class at or above [n] otherwise (the sectors past
    [n] hold whatever the array last carried), so callers pass their
    count along with the array. Whoever holds an array last hands it
    back with [release] once no live reference remains: the background
    copy's writer its chunk after the write-if-empty, vblade and peer
    serving their whole-command staging, AHCI/IDE command execution its
    staging, the boot prefetch and the multicast fill their copies, and
    the AoE client each response fragment it reassembled.
    Dropping a scratch array to the GC instead of releasing is always
    safe, merely unpooled; an array of a length [alloc] never returns
    is left to the GC. *)
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
