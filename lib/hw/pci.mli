(** PCI configuration space model.

    Supports device enumeration as a guest OS would perform it, and
    hiding a device's config space — the mechanism §4.3 proposes for
    keeping a management NIC invisible to the guest after deployment. *)

type bdf = { bus : int; dev : int; fn : int }

type device = {
  bdf : bdf;
  vendor_id : int;
  device_id : int;
  class_code : int;
  bars : (int * int) list;  (** (base, size) pairs *)
}

type t

val create : unit -> t

val add : t -> device -> unit
(** Raises [Invalid_argument] if the BDF is taken. *)

val scan : t -> device list
(** Devices visible to a config-space scan, BDF order. *)

val find : t -> bdf -> device option
(** [None] if absent or hidden. *)

val hide : t -> bdf -> unit
(** Make the device invisible to [scan]/[find]. *)

val unhide : t -> bdf -> unit
