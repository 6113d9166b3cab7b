(** Guest IDE driver (task file + bus-master DMA over port I/O).

    The IDE twin of {!Ahci_driver}; exercises BMcast's IDE device
    mediator, whose I/O interpretation must shadow the task-file
    registers written one port at a time. *)

type t

val attach : Bmcast_platform.Machine.t -> t
(** Hook the ISR. The machine must have an IDE controller.
    @raise Invalid_argument on an AHCI machine. *)

val read : t -> lba:int -> count:int -> Bmcast_storage.Content.t array
(** Blocking read (process context). Requests larger than 256 sectors
    are split into multiple commands (the task-file limit). *)

val write : t -> lba:int -> count:int -> Bmcast_storage.Content.t array -> unit
