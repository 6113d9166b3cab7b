(** Guest IDE driver (task file + bus-master DMA over port I/O).

    The IDE twin of {!Ahci_driver}; exercises BMcast's IDE device
    mediator, whose I/O interpretation must shadow the task-file
    registers written one port at a time. *)

type t

val attach : Bmcast_platform.Machine.t -> t
(** Hook the ISR. The machine must have an IDE controller.
    @raise Invalid_argument on an AHCI machine. *)

val read_into :
  t -> lba:int -> count:int -> Bmcast_storage.Content.t array -> unit
(** [read_into t ~lba ~count dst] reads [count] sectors into
    [dst.(0 .. count - 1)] (process context), as {!Ahci_driver.read_into}
    does. Requests larger than 256 sectors are split into multiple
    commands (the task-file limit), each on its own window of [dst].

    @raise Invalid_argument naming the driver, before any port access,
    unless [0 < count <= Array.length dst]. *)

val write :
  t -> lba:int -> count:int -> Bmcast_storage.Content.t array -> unit
(** Write [data.(0 .. count - 1)] (process context), split as reads are.
    @raise Invalid_argument as {!read_into} does. *)
