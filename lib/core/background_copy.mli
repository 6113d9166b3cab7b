(** Background copy engine (§3.3).

    A {e retriever} thread pulls empty-block chunks from the storage
    server and pushes them into a bounded FIFO; a {e writer} thread pops
    chunks and writes them to the local disk through the mediator's
    multiplexed path. The writer moderates itself: while the guest's
    recent I/O rate exceeds the threshold it sleeps for the suspend
    interval, otherwise it writes one chunk per write interval. Chunks
    follow ascending LBA but restart next to the guest's last access to
    minimize seeking; every write atomically skips sectors the guest has
    filled in the meantime (the bitmap consistency rule). *)

type ops = {
  fetch : lba:int -> count:int -> Bmcast_storage.Content.t array -> unit;
      (** retrieve the storage server's sectors into the array's first
          [count] places; the array is a {!Bmcast_storage.Content.Scratch}
          one, possibly longer, whose first [count] places are zero *)
  write_empty : lba:int -> count:int -> Bmcast_storage.Content.t array -> int;
      (** multiplexed write of the still-empty sectors only (the
          mediator's atomic check-and-write) from the array's first
          [count] places; returns sectors written. The copy releases
          the array to the scratch pool once this returns. *)
  guest_io_rate : unit -> float;
  redirect_active : unit -> bool;
      (** copy-on-read in flight: the guest is faulting cold blocks *)
  guest_last_lba : unit -> int option;
      (** where the guest last read the disk, for locality *)
}

type t

val start :
  Bmcast_engine.Sim.t ->
  params:Params.t ->
  bitmap:Bitmap.t ->
  ops:ops ->
  ?owner:string ->
  unit ->
  t
(** Spawn the retriever and writer threads. [bitmap] must cover exactly
    the image ([Bitmap.sectors bitmap = params.image_sectors], as
    [Vmm.boot] sizes it), so every run the retriever finds lies inside
    the image; raises [Invalid_argument] otherwise. [owner] is the
    owning machine's name; when set, fetch/write-chunk spans carry
    ["m"]/["stage"] args for [Bmcast_obs.Analytics]. *)

val stop : t -> unit
(** Ask both threads to exit after their current operation (used by a
    VMM shutdown). *)

val pause : t -> unit
(** Suspend retrieval after the current chunk: no new fetches are
    issued until {!resume}. The writer drains chunks already fetched,
    then idles. Progress (bitmap, cursor, in-flight accounting) is
    preserved, so a resumed copy continues exactly where it paused. *)

val resume : t -> unit
val is_paused : t -> bool

val fetch_failures : t -> int
(** Transient fetch errors (transport timeout / target error) the
    retriever absorbed. Each failure backs off exponentially — capped
    at 1 s — so sustained target loss quiesces the retriever instead of
    flooding a dead server, and the failed range is retried once the
    fault clears. *)

val wait_complete : t -> unit
(** Block until every image sector is filled (process context). *)

val bytes_written : t -> int
val chunks_suspended : t -> int
(** Times the writer found the guest busy and backed off. *)
