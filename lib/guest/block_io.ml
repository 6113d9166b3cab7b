module Machine = Bmcast_platform.Machine
module Pci = Bmcast_hw.Pci

type t = A of Ahci_driver.t | I of Ide_driver.t

(* The guest OS discovers its storage controller the way a real kernel
   does: scan PCI config space and bind the driver matching the class
   code (0x0106xx = SATA/AHCI, 0x0101xx = IDE). *)
let attach machine =
  let storage_class =
    List.find_map
      (fun d ->
        let cls = d.Pci.class_code lsr 8 in
        if cls = 0x0106 || cls = 0x0101 then Some cls else None)
      (Pci.scan machine.Machine.pci)
  in
  match storage_class with
  | Some 0x0106 -> A (Ahci_driver.attach machine)
  | Some 0x0101 -> I (Ide_driver.attach machine)
  | Some _ | None ->
    invalid_arg "Block_io.attach: no storage controller found on PCI"

let read_into t ~lba ~count dst =
  match t with
  | A d -> Ahci_driver.read_into d ~lba ~count dst
  | I d -> Ide_driver.read_into d ~lba ~count dst

let read t ~lba ~count =
  let dst = Bmcast_storage.Content.zeroes ~count:(max 0 count) in
  read_into t ~lba ~count dst;
  dst

let write t ~lba ~count data =
  match t with
  | A d -> Ahci_driver.write d ~lba ~count data
  | I d -> Ide_driver.write d ~lba ~count data
