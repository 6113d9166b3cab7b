(** Guest AHCI driver.

    A faithful (if minimal) driver: builds command tables in guest
    memory, issues them through slot 0 of the machine's AHCI controller
    over MMIO, and completes on the controller's interrupt. All register
    accesses go through the machine's MMIO bus, so when BMcast is
    resident they are transparently mediated — the driver neither knows
    nor cares, which {e is} the paper's OS-transparency claim. *)

type t

val attach : Bmcast_platform.Machine.t -> t
(** Initialize the controller (command list, interrupt enable, port
    start) and hook the ISR. The machine must have an AHCI controller.

    @raise Invalid_argument on an IDE machine. *)

val read : t -> lba:int -> count:int -> Bmcast_storage.Content.t array
(** Blocking read (process context). One command per request. *)

val write : t -> lba:int -> count:int -> Bmcast_storage.Content.t array -> unit
