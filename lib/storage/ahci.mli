(** AHCI host bus adapter model (single port, 32 command slots).

    The guest driver programs the controller the way a real AHCI driver
    does: it builds a command table (command FIS + PRDT scatter list) in
    guest memory, points a command-list slot at it, and writes the slot's
    bit to PxCI. The controller fetches the structures, performs the disk
    transfer via DMA, clears the PxCI bit, sets PxIS and raises its
    interrupt if PxIE is enabled.

    All register traffic goes through an {!Bmcast_hw.Mmio} region, so a
    VMM can interpose on it; command tables are plain guest memory and
    can be read {e and rewritten} by a mediator before the device sees
    them — the paper's command-manipulation trick (§3.2). *)

type op = Read | Write

type prd = Dma.prd = { buf_addr : int; mutable sectors : int }
(** One physical-region-descriptor entry. *)

type cmd_table = {
  mutable op : op;
  mutable lba : int;
  mutable count : int;
  mutable prdt : prd list;
}
(** A command table: the command FIS essentials (operation, LBA, sector
    count) and the PRD table. Guest memory, rewritten in place: a driver
    stores each command into its slot's table, and a mediator may
    rewrite it before the device fetches it. *)

(** Register byte offsets within the controller's MMIO region:
    [px_clb] command list base, [px_is] interrupt status (RW1C), [px_ie]
    interrupt enable, [px_cmd] port command (bit 0 = ST), [px_tfd] task
    file data (bit 7 = BSY), [px_ci] command issue bitmask. *)
module Regs : sig
  val px_clb : int
  val px_is : int
  val px_ie : int
  val px_cmd : int
  val px_tfd : int
  val px_ci : int
end

val tfd_bsy : int
(** BSY bit within PxTFD. *)

type t

val create :
  Bmcast_engine.Sim.t ->
  mmio:Bmcast_hw.Mmio.t ->
  base:int ->
  dma:Dma.t ->
  disk:Disk.t ->
  irq:Bmcast_hw.Irq.t ->
  irq_vec:int ->
  t
(** Create the controller and map its register region at [base]. *)

val raw : t -> Bmcast_hw.Mmio.handler
(** Direct register access that bypasses any interposer — how a VMM that
    owns the platform reaches the device underneath its own traps. *)

(** {2 Guest-memory command structures}

    Owned here because both the guest driver and a mediator dereference
    them by address. Lists and tables are found by their index from a
    fixed base, never freed, and live as long as the controller. *)

val alloc_cmd_list : t -> int
(** Allocate a 32-slot command list, returning its address (the value a
    driver writes to PxCLB). *)

val alloc_cmd_table : t -> op:op -> lba:int -> count:int -> prd list -> int
(** Build a command table in guest memory; returns its address. The
    table lives as long as the controller, so a driver allocates one per
    slot it uses and rewrites its fields for each command, as a real
    AHCI driver does. *)

val cmd_table : t -> addr:int -> cmd_table
(** Dereference a command table (driver or mediator).

    [cmd_table], {!set_slot} and {!slot_table_addr} raise
    [Invalid_argument] when the address is not that of a table (or, for
    [clb], of a command list) this controller allocated. *)

val set_slot : t -> clb:int -> slot:int -> table_addr:int -> unit
(** Point command-list slot [slot] at a table. *)

val slot_table_addr : t -> clb:int -> slot:int -> int
(** Read back a slot's table address. Raises if the slot is empty. *)

(** {2 Statistics} *)

val commands_processed : t -> int
val irqs_raised : t -> int
