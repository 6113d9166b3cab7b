(** NIC device mediator with shadow ring buffers (§6).

    The paper's shared-NIC design, prototyped there for Intel PRO/1000
    and Realtek RTL8169: "we create a shadow version of ring buffers
    [...] maintained by the VMM and the pointer to the buffers set to
    the physical NIC. The guest ring buffers are maintained by the
    device driver of the guest OS and their contents are copied to and
    from the shadow ring buffers by the VMM. [...] The VMM interleaves
    its own network requests with the requests from the guest OS into
    the shadow ring buffers."

    Mechanically: the mediator owns the rings the device actually uses.
    Guest TDT writes are trapped; the descriptors the guest driver wrote
    into {e its} ring are copied into the shadow ring (interleaved with
    the VMM's own frames) and the head/tail registers the guest reads
    are emulated. Inbound frames land in the shadow RX ring, are polled
    by the mediator, claimed by the VMM's filter (AoE traffic) or
    relayed into the guest's RX ring with an injected interrupt.

    The paper ultimately prefers a dedicated NIC because this mediation
    adds latency/jitter and the two streams contend for bandwidth — the
    ablation benchmark quantifies exactly that. *)

type t

val attach :
  Bmcast_platform.Machine.t ->
  poll_interval:Bmcast_engine.Time.span ->
  t
(** Interpose on the production NIC: allocate shadow rings, retarget the
    device at them, start the mediator's polling thread. *)

val set_vmm_rx : t -> (Bmcast_net.Packet.t -> bool) -> unit
(** The VMM's inbound filter: return [true] to consume a frame (e.g. an
    AoE response); [false] frames are relayed to the guest. *)

val vmm_send : t -> dst:int -> size_bytes:int -> Bmcast_net.Packet.payload -> unit
(** Transmit a VMM frame, interleaved into the shadow TX ring. *)

val devirtualize : t -> unit
(** Wait for the guest to go quiet, point the device back at the
    guest's own rings and remove the interposer (process context). The
    guest driver is expected to reprogram TDBA/RDBA afterwards, as real
    drivers do across a device reset. *)

(** {2 Statistics} *)

val guest_tx_frames : t -> int
val guest_rx_relayed : t -> int
val guest_rx_dropped : t -> int
val vmm_tx_frames : t -> int
