module Sim = Bmcast_engine.Sim
module Time = Bmcast_engine.Time
module Firmware = Bmcast_hw.Firmware
module Content = Bmcast_storage.Content
module Machine = Bmcast_platform.Machine
module Runtime = Bmcast_platform.Runtime
module Cpu_model = Bmcast_platform.Cpu_model
module Remote_block = Bmcast_proto.Remote_block

type t = { machine : Machine.t; server : Remote_block.client }

(* kernel + initramfs payload fetched by the PXE loader *)
let loader_bytes = 48 * 1024 * 1024

(* NFS-root pays per-access metadata RPCs (lookup/getattr revalidation)
   that an image-file backend does not. *)
let metadata_overhead = Time.ms 2

let create machine ~server = { machine; server }

let pxe_boot_loader t =
  Firmware.pxe_load t.machine.Machine.firmware ~bytes_len:loader_bytes

let runtime t =
  { Runtime.label = "netboot";
    machine = t.machine;
    block_read =
      (fun ~lba ~count dst ->
        Sim.sleep metadata_overhead;
        Content.blit (Remote_block.read t.server ~lba ~count) 0 dst 0 count);
    block_write =
      (fun ~lba ~count data ->
        Sim.sleep metadata_overhead;
        Remote_block.write t.server ~lba ~count data);
    cpu = Cpu_model.bare ();
    phase = (fun () -> Runtime.Bare) }
