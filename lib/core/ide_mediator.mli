(** IDE register interpretation for the device mediator (§3.2; 1,472
    LoC in the paper's prototype).

    Because the task file carries the command context one port-write at
    a time, I/O interpretation keeps a {e shadow task file}: every guest
    write to it is recorded instead of forwarded, since the mediator
    programs the device itself from a snapshot. The decision point is
    the bus-master start bit, when the whole command is known; it is
    then handed to {!Mediator}. FLUSH CACHE has no bus-master phase and
    is handed over at the command-register write.

    Withheld guest commands show an emulated BSY status; the VMM's own
    commands run with nIEN set, at most 256 sectors each (the task
    file's 8-bit count), with completion detected by polling the
    bus-master status; the completion interrupt for redirected guest
    reads comes from the device itself via a dummy-sector command. *)

val attach :
  Bmcast_platform.Machine.t ->
  Bmcast_storage.Ide.t ->
  aoe:Bmcast_proto.Aoe_client.t ->
  bitmap:Bitmap.t ->
  params:Params.t ->
  Mediator.t
(** Install interposers on the task-file, bus-master and control port
    ranges of the machine's IDE controller. *)
