(** Physical machine composition.

    Mirrors the paper's testbed node (FUJITSU PRIMERGY RX200 S6): 12
    cores, 96 GB RAM, one SATA disk behind an AHCI or IDE controller,
    two gigabit NICs (the second dedicated to the VMM), and an optional
    InfiniBand HCA. All device register traffic flows through the
    machine's {!Bmcast_hw.Mmio} / {!Bmcast_hw.Pio} buses so a VMM can
    interpose on any of it. *)

type disk_kind = Ahci_disk | Ide_disk

type controller = Ahci of Bmcast_storage.Ahci.t | Ide of Bmcast_storage.Ide.t

type t = {
  name : string;
  sim : Bmcast_engine.Sim.t;
  cpu : Bmcast_hw.Cpu.t;
  mmio : Bmcast_hw.Mmio.t;
  pio : Bmcast_hw.Pio.t;
  irq : Bmcast_hw.Irq.t;
  dma : Bmcast_storage.Dma.t;
  memmap : Bmcast_hw.Memmap.t;
  pci : Bmcast_hw.Pci.t;
  firmware : Bmcast_hw.Firmware.params;
  disk : Bmcast_storage.Disk.t;
  controller : controller;
  prod_nic : Bmcast_net.Nic.t;  (** production NIC (guest traffic) *)
  mgmt_nic : Bmcast_net.Nic.t;  (** dedicated management NIC (VMM) *)
  ib : Bmcast_net.Ib.endpoint option;
}

(** Well-known addresses and vectors. *)
val ahci_base : int
val ide_cmd_base : int
val ide_bm_base : int
val ide_ctrl_base : int
val prod_nic_base : int
val mgmt_nic_base : int
val disk_irq_vec : int
val prod_nic_irq_vec : int

val create :
  Bmcast_engine.Sim.t ->
  name:string ->
  ?disk_profile:Bmcast_storage.Disk.profile ->
  ?disk_kind:disk_kind ->
  fabric:Bmcast_net.Fabric.t ->
  ?ib:Bmcast_net.Ib.t ->
  unit ->
  t
(** A testbed node: 12 cores, 96 GB and the default server firmware.
    Defaults: the paper's Constellation.2 HDD behind AHCI, no
    InfiniBand. *)
