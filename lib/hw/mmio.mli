(** Memory-mapped I/O address space with VMM interposition.

    Devices map register regions; drivers access them with [read]/[write].
    A VMM can {e interpose} on a region: every access to it is then routed
    through the interposer, which may observe, forward, or answer the
    access itself. This models nested-paging-based MMIO trapping — the
    mechanism BMcast's device mediators use for I/O interpretation — and
    removing the interposition models de-virtualization.

    Register values travel as untagged [int]: every register this
    platform models is at most 32 bits wide, so an OCaml 63-bit [int]
    holds it without the boxed-[Int64] allocation that used to dominate
    the polling hot path. *)

type t

type handler = {
  read : int -> int;  (** [read offset] within the region *)
  write : int -> int -> unit;  (** [write offset value] *)
}

(** An interposer sees region-relative offsets and the device handler. *)
type interposer = {
  on_read : next:(int -> int) -> int -> int;
  on_write : next:(int -> int -> unit) -> int -> int -> unit;
}

val create : unit -> t

val set_profile : t -> Bmcast_obs.Profile.t -> unit
(** Attach an allocation profiler (done by [Machine.create]). Only
    non-interposed register accesses are scoped (categories
    ["mmio.read"]/["mmio.write"]) — interposed accesses dispatch into
    mediator handlers that may suspend, and profiler scopes must not
    cross a scheduling point. *)

val map : t -> base:int -> size:int -> handler -> unit
(** Map a device region. Raises [Invalid_argument] on overlap. *)

val unmap : t -> base:int -> unit
(** Unmap the region mapped at exactly [base]. Raises
    [Invalid_argument] if no region is mapped there — a silent no-op
    would let a typo'd teardown leave a stale device mapped. *)

val interpose : t -> base:int -> interposer -> unit
(** Install an interposer on the region mapped at [base]. At most one
    interposer per region; raises [Invalid_argument] if the region is not
    mapped or already interposed. *)

val remove_interposer : t -> base:int -> unit
(** De-virtualize the region: subsequent accesses go directly to the
    device handler. No-op if none installed. *)

val read : t -> int -> int
(** [read addr]: absolute address. Raises [Invalid_argument] if unmapped. *)

val write : t -> int -> int -> unit

val trapped_accesses : t -> int
(** Number of accesses that went through any interposer (i.e. would have
    caused VM exits on real hardware). *)
