(** Ring-buffer NIC model (e1000-style).

    Transmit and receive descriptor rings live in guest memory and are
    located by base-address registers (TDBA/RDBA); the driver advances
    tail registers over MMIO and the device advances head registers as
    it consumes/fills descriptors. This is the interface the paper's
    small polling VMM drivers (PRO/1000, X540, RTL816x, NetXtreme;
    §4.3) program, and the register set the shared-NIC device mediator
    of §6 shadows: a mediator allocates its own {e shadow} rings, points
    TDBA/RDBA at them, and copies descriptors to and from the rings the
    guest driver maintains.

    Ring discipline (e1000 semantics, simplified):
    - TX: software writes descriptors at indices [\[TDH, TDT)] of the
      ring at TDBA and bumps TDT; hardware transmits from TDH and
      advances it to TDT.
    - RX: software pre-publishes free buffers and bumps RDT; hardware
      fills the descriptor at RDH for each arriving frame, advances RDH,
      and raises its interrupt (if enabled). If the ring is full
      ([RDH = RDT]), the frame is dropped. *)

val ring_size : int

(** Register byte offsets: [tdh]/[tdt] transmit head/tail, [rdh]/[rdt]
    receive head/tail, [ie] interrupt enable (1 = rx interrupts),
    [tdba]/[rdba] descriptor ring base addresses. *)
module Regs : sig
  val tdh : int
  val tdt : int
  val rdh : int
  val rdt : int
  val ie : int
  val tdba : int
  val rdba : int
end

type t

val create :
  Bmcast_engine.Sim.t ->
  mmio:Bmcast_hw.Mmio.t ->
  base:int ->
  fabric:Fabric.t ->
  name:string ->
  irq:Bmcast_hw.Irq.t ->
  irq_vec:int ->
  t
(** Attaches a fabric port, maps registers at [base], and allocates a
    default TX and RX ring (TDBA/RDBA point at them initially, so
    simple owners need not manage rings). *)

val port : t -> Fabric.port

(** [fabric t] is the fabric this NIC is attached to (for frame release
    by ring consumers). *)
val fabric : t -> Fabric.t
val raw : t -> Bmcast_hw.Mmio.handler

(** {2 Descriptor rings (guest memory)} *)

val alloc_tx_ring : t -> int
(** Allocate a TX descriptor ring; returns its address (a TDBA value). *)

val alloc_rx_ring : t -> int

val default_tx_ring : t -> int
(** Address of the ring allocated at creation. *)

val default_rx_ring : t -> int

val set_tx_desc :
  t -> ring:int -> idx:int -> dst:int -> size_bytes:int -> Packet.payload -> unit
(** Write a TX descriptor into a ring (plain memory write, untrapped).
    The descriptor holds a frame record from the fabric's pool, which
    the device later sends as it is: a transmit allocates nothing. *)

val tx_desc : t -> ring:int -> idx:int -> (int * int * Packet.payload) option
(** Read back a TX descriptor: [(dst, size_bytes, payload)]. *)

val no_frame : Packet.t
(** What an empty RX descriptor holds; compare with [==]. *)

val rx_desc : t -> ring:int -> idx:int -> Packet.t
(** Frame placed at an RX descriptor, or {!no_frame}: a slot holds its
    frame directly, so reading one allocates nothing. *)

val put_rx_desc : t -> ring:int -> idx:int -> Packet.t -> unit
(** Store a frame into an RX ring slot (used by a mediator relaying
    frames into the guest's ring). *)

val clear_rx_desc : t -> ring:int -> idx:int -> unit

val clear_ring : t -> int -> unit
(** Empty every descriptor of the ring at this address, TX or RX. A
    frame still in the ring goes to the GC, not to the fabric pool.
    Raises [Invalid_argument] if no ring starts there. *)

val rx_dropped : t -> int
(** Frames dropped because the RX ring was full. *)
