module Sim = Bmcast_engine.Sim
module Cpu = Bmcast_hw.Cpu
module Mmio = Bmcast_hw.Mmio
module Pio = Bmcast_hw.Pio
module Irq = Bmcast_hw.Irq
module Memmap = Bmcast_hw.Memmap
module Pci = Bmcast_hw.Pci
module Firmware = Bmcast_hw.Firmware
module Dma = Bmcast_storage.Dma
module Disk = Bmcast_storage.Disk
module Ahci = Bmcast_storage.Ahci
module Ide = Bmcast_storage.Ide
module Nic = Bmcast_net.Nic
module Fabric = Bmcast_net.Fabric
module Ib = Bmcast_net.Ib

type disk_kind = Ahci_disk | Ide_disk

type controller = Ahci of Ahci.t | Ide of Ide.t

type t = {
  name : string;
  sim : Sim.t;
  cpu : Cpu.t;
  mmio : Mmio.t;
  pio : Pio.t;
  irq : Irq.t;
  dma : Dma.t;
  memmap : Memmap.t;
  pci : Pci.t;
  firmware : Firmware.params;
  disk : Disk.t;
  controller : controller;
  prod_nic : Nic.t;
  mgmt_nic : Nic.t;
  ib : Ib.endpoint option;
}

let ahci_base = 0xF000_0000
let ide_cmd_base = 0x1F0
let ide_bm_base = 0xC000
let ide_ctrl_base = 0x3F6
let prod_nic_base = 0xE000_0000
let mgmt_nic_base = 0xE001_0000
let disk_irq_vec = 14
let prod_nic_irq_vec = 10
let mgmt_nic_irq_vec = 9

let create sim ~name ?(disk_profile = Disk.hdd_constellation2)
    ?(disk_kind = Ahci_disk) ~fabric ?ib () =
  let mmio = Mmio.create () in
  Mmio.set_profile mmio (Sim.profile sim);
  let pio = Pio.create () in
  let irq = Irq.create sim in
  let dma = Dma.create () in
  let disk = Disk.create sim disk_profile in
  let controller =
    match disk_kind with
    | Ahci_disk ->
      Ahci
        (Ahci.create sim ~mmio ~base:ahci_base ~dma ~disk ~irq
           ~irq_vec:disk_irq_vec)
    | Ide_disk ->
      Ide
        (Ide.create sim ~pio ~cmd_base:ide_cmd_base ~bm_base:ide_bm_base
           ~ctrl_base:ide_ctrl_base ~dma ~disk ~irq ~irq_vec:disk_irq_vec)
  in
  let prod_nic =
    Nic.create sim ~mmio ~base:prod_nic_base ~fabric ~name:(name ^ "-nic0")
      ~irq ~irq_vec:prod_nic_irq_vec
  in
  let mgmt_nic =
    Nic.create sim ~mmio ~base:mgmt_nic_base ~fabric ~name:(name ^ "-nic1")
      ~irq ~irq_vec:mgmt_nic_irq_vec
  in
  let pci = Pci.create () in
  let add_pci ~dev ~vendor_id ~device_id ~class_code ~bars =
    Pci.add pci { Pci.bdf = { Pci.bus = 0; dev; fn = 0 }; vendor_id; device_id;
                  class_code; bars }
  in
  (match disk_kind with
  | Ahci_disk ->
    add_pci ~dev:2 ~vendor_id:0x8086 ~device_id:0x2922 ~class_code:0x010601
      ~bars:[ (ahci_base, 0x200) ]
  | Ide_disk ->
    add_pci ~dev:2 ~vendor_id:0x8086 ~device_id:0x7010 ~class_code:0x010180
      ~bars:[]);
  add_pci ~dev:3 ~vendor_id:0x8086 ~device_id:0x10D3 ~class_code:0x020000
    ~bars:[ (prod_nic_base, 0x40) ];
  add_pci ~dev:4 ~vendor_id:0x8086 ~device_id:0x10D3 ~class_code:0x020000
    ~bars:[ (mgmt_nic_base, 0x40) ];
  (match ib with
  | Some _ ->
    add_pci ~dev:5 ~vendor_id:0x15B3 ~device_id:0x673C ~class_code:0x0C0600
      ~bars:[ (0xD000_0000, 0x100000) ]
  | None -> ());
  { name;
    sim;
    cpu = Cpu.create sim ~cores:12;
    mmio;
    pio;
    irq;
    dma;
    memmap = Memmap.create ~total_bytes:(96 * 1024 * 1024 * 1024);
    pci;
    firmware = Firmware.default;
    disk;
    controller;
    prod_nic;
    mgmt_nic;
    ib = Option.map (fun fab -> Ib.attach fab ~name:(name ^ "-ib")) ib }
