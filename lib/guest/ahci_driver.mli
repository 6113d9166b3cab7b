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

val read_into :
  t -> lba:int -> count:int -> Bmcast_storage.Content.t array -> unit
(** [read_into t ~lba ~count dst] reads [count] sectors into
    [dst.(0 .. count - 1)] (process context), as read(2) fills a
    caller's buffer: the device transfers straight into [dst], one
    command per request. Sectors the device does not transfer (a command
    a VMM turns into a dummy read) keep what [dst] held.

    @raise Invalid_argument naming the driver, before any register
    access, unless [0 < count <= Array.length dst]. *)

val write :
  t -> lba:int -> count:int -> Bmcast_storage.Content.t array -> unit
(** Write [data.(0 .. count - 1)] (process context). The device reads
    [data] itself, which must not change until the call returns.

    @raise Invalid_argument as {!read_into} does. *)
