(** AHCI register interpretation for the device mediator (§3.2).

    Interposes on the machine's AHCI register region. It snoops PxCI
    writes and walks the in-memory command list and command tables to
    learn each guest command's operation, LBA, sector count and DMA
    scatter list, then hands it to {!Mediator}. It detects controller
    initialization (PxCMD.ST), which makes the device usable for VMM
    commands.

    The guest's view is emulated on PxCI, PxIS, PxIE and PxTFD: withheld
    commands stay set in PxCI (and PxTFD shows BSY), and while the VMM
    holds the device PxIS reads clear and the guest's PxIE writes are
    deferred. VMM commands run in command slot 31, completion polled on
    PxCI. A redirected command is restarted by rewriting its command
    table in guest memory into a one-sector dummy read. *)

val attach :
  Bmcast_platform.Machine.t ->
  Bmcast_storage.Ahci.t ->
  aoe:Bmcast_proto.Aoe_client.t ->
  bitmap:Bitmap.t ->
  params:Params.t ->
  Mediator.t
(** Install the interposer on the machine's AHCI controller. *)
