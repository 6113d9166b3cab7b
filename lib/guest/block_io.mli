(** Controller-agnostic guest block I/O: the guest OS scans PCI config
    space at boot and binds the AHCI or IDE driver matching the storage
    controller's class code — exactly the transparent driver selection
    an unmodified kernel performs. *)

type t

val attach : Bmcast_platform.Machine.t -> t
(** Raises [Invalid_argument] if no storage controller is visible in
    PCI config space. *)

val read : t -> lba:int -> count:int -> Bmcast_storage.Content.t array
val write : t -> lba:int -> count:int -> Bmcast_storage.Content.t array -> unit
