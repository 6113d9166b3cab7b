(** Controller-agnostic guest block I/O: the guest OS scans PCI config
    space at boot and binds the AHCI or IDE driver matching the storage
    controller's class code — exactly the transparent driver selection
    an unmodified kernel performs. *)

type t

val attach : Bmcast_platform.Machine.t -> t
(** Raises [Invalid_argument] if no storage controller is visible in
    PCI config space. *)

val read_into :
  t -> lba:int -> count:int -> Bmcast_storage.Content.t array -> unit
(** [read_into t ~lba ~count dst] fills [dst.(0 .. count - 1)] through
    the bound driver (process context); see {!Ahci_driver.read_into}.
    A command allocates nothing beyond the continuations of the
    processes it suspends.
    @raise Invalid_argument unless [0 < count <= Array.length dst]. *)

val read : t -> lba:int -> count:int -> Bmcast_storage.Content.t array
(** {!read_into} a fresh zeroed array, returned: the allocating
    convenience. *)

val write : t -> lba:int -> count:int -> Bmcast_storage.Content.t array -> unit
(** Write [data.(0 .. count - 1)]; raises as {!read_into} does. *)
