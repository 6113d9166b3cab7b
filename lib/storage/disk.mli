(** Rotating / solid-state disk model: content plus service timing.

    Content is stored compactly as extents (see {!Extent_map}); timing
    follows classic disk mechanics — seek distance, rotational latency,
    media transfer rate, and an on-disk track cache. The track cache is
    load-bearing for BMcast: the mediator's interrupt-generation trick
    re-reads "a single dummy sector that hits the disk cache" (§3.2), so
    cached re-reads must be fast.

    [read]/[write] block the calling process for the service time; the
    caller (a controller) is responsible for serializing requests. *)

type profile = {
  name : string;
  capacity_sectors : int;
  media_rate_bytes_per_s : float;
  write_factor : float;  (** write streaming runs this much slower *)
  track_to_track_seek : Bmcast_engine.Time.span;
  full_stroke_seek : Bmcast_engine.Time.span;
  rotation_period : Bmcast_engine.Time.span;  (** 0 for SSDs *)
  cache_hit_time : Bmcast_engine.Time.span;
  fixed_overhead : Bmcast_engine.Time.span;  (** per-command overhead *)
}

val hdd_constellation2 : profile
(** Calibrated to the paper's Seagate Constellation.2 ST9500620NS
    (500 GB, 7200 rpm, ~117 MB/s sequential with 1 MB requests). *)

val ssd_sata : profile
(** A SATA SSD profile for the "would SSDs help?" discussions in §2/§5.1. *)

type t

val create : Bmcast_engine.Sim.t -> profile -> t
val capacity_sectors : t -> int

(** {2 Timed operations (process context)} *)

exception Read_error of int
(** Raised by {!read} when the span overlaps an injected transient
    fault; carries the first failing LBA. The mechanical service time
    has already elapsed when this is raised. *)

val read : t -> lba:int -> count:int -> Content.t array
val write : t -> lba:int -> count:int -> Content.t array -> unit

val read_into : t -> lba:int -> count:int -> Content.t array -> unit
(** {!read}, staged into a caller-owned buffer (typically a
    [Content.Scratch] array) instead of a fresh allocation. The first
    [count] slots must be {!Content.zero} on entry; unmapped sectors are
    left untouched. *)

(** {2 Fault injection (hook points for {!Bmcast_faults.Fault})} *)

val inject_read_errors : t -> lba:int -> count:int -> times:int -> unit
(** Arm a transient media fault: the next [times] timed reads touching
    [\[lba, lba+count)] raise {!Read_error}, after which the sectors
    read clean again (a real disk's recoverable-sector behaviour).
    Instant {!peek} access is unaffected. *)

val set_latency_spike : t -> extra:Bmcast_engine.Time.span -> until:Bmcast_engine.Time.t -> unit
(** Until the given absolute time, every timed operation takes [extra]
    longer (firmware garbage collection, thermal recalibration, a
    shared-spindle neighbour). Replaces any previous spike. *)

val read_errors : t -> int
(** Number of injected read errors actually delivered so far. *)

val service_time :
  t -> [ `Read | `Write ] -> lba:int -> count:int -> Bmcast_engine.Time.span
(** Time the next such operation would take (also advances no state). *)

(** {2 Instant access (tests, image preloading, assertions)} *)

val peek : t -> lba:int -> count:int -> Content.view array
(** The sectors' views, for code that matches on them. *)

val poke : t -> lba:int -> count:int -> Content.t array -> unit
(** [poke t ~lba ~count data] stores [data.(0 .. count - 1)]; [data]
    may be longer (a {!Content.Scratch} array). Raises
    [Invalid_argument] if it is shorter. *)

(** [peek_into t ~lba ~count buf] stores the sectors into a caller-owned
    all-{!Content.zero} buffer, allocating nothing per sector; see
    {!read_into}. *)
val peek_into : t -> lba:int -> count:int -> Content.t array -> unit
val sector : t -> int -> Content.t

val mapped_sectors_in : t -> lba:int -> count:int -> int
(** Sectors of [\[lba, lba+count)] with stored (written) content —
    instant extent accounting. A result of [count] means the disk fully
    holds the range; the peer-serve path uses this as its "do I really
    have these bytes" guard alongside the fill bitmap. *)

val fill_with_image : t -> unit
(** Instantly set every sector to its image content (a pre-deployed
    disk, or the storage server's copy). *)

(** {2 Statistics} *)

val bytes_read : t -> int
val bytes_written : t -> int
val seeks : t -> int
val busy_time : t -> Bmcast_engine.Time.span
