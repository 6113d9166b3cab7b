(** IDE/ATA controller model (task file + bus-master DMA).

    The driver programs the task-file registers (sector count, LBA bytes,
    device), points the bus-master engine at a PRD table, writes the
    command register (READ DMA / WRITE DMA) and starts the bus master.
    The device transfers via DMA and raises its interrupt unless nIEN is
    set in the device-control register.

    Unlike AHCI there is no command queue: one command is in flight at a
    time, and the task file itself carries the command context — which is
    why the IDE mediator keeps a shadow task file (§3.2's I/O
    interpretation for PIO devices). *)

(** Port offsets relative to the command block base. Writing [command]
    issues a command; reading it returns the status register. *)
module Regs : sig
  val seccount : int
  val lba0 : int
  val lba1 : int
  val lba2 : int
  val device : int
  val command : int
end

(** Commands and status bits. *)
val cmd_read_dma : int
val cmd_write_dma : int
val cmd_flush : int

val status_bsy : int
val status_drdy : int

(** Bus-master register offsets relative to the bus-master base:
    [command] (bit 0 = start), [status] (bit 0 = active, bit 2 = IRQ,
    RW1C), [prdt] (PRD table address). *)
module Bm : sig
  val command : int
  val status : int
  val prdt : int
end

(** Device-control register (its own 1-port range). *)
val ctrl_nien : int
(** Bit: interrupts disabled. *)

type prd = Dma.prd = { buf_addr : int; mutable sectors : int }

type t

val create :
  Bmcast_engine.Sim.t ->
  pio:Bmcast_hw.Pio.t ->
  cmd_base:int ->
  bm_base:int ->
  ctrl_base:int ->
  dma:Dma.t ->
  disk:Disk.t ->
  irq:Bmcast_hw.Irq.t ->
  irq_vec:int ->
  t

val raw_cmd : t -> Bmcast_hw.Pio.handler
(** Direct task-file access bypassing interposers. *)

val raw_bm : t -> Bmcast_hw.Pio.handler
val raw_ctrl : t -> Bmcast_hw.Pio.handler

val register_prdt : t -> prd list -> int
(** Store a PRD table in guest memory; returns its address (the value
    written to the bus-master PRDT register). Tables live as long as the
    controller, so a driver registers one and rewrites it with
    {!set_prdt} for each command. *)

val prdt : t -> addr:int -> prd list

val set_prdt : t -> addr:int -> prd list -> unit
(** Rewrite a registered table in place.

    [prdt] and [set_prdt] raise [Invalid_argument] for an address
    {!register_prdt} did not return. *)

val commands_processed : t -> int
