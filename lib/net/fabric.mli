(** Switched Ethernet fabric.

    Endpoints attach to ports of a store-and-forward switch (the paper's
    FUJITSU SR-S348TC1 gigabit switch with 9000-byte MTU). A frame is
    serialized onto the sender's uplink at the port rate, forwarded, then
    serialized again on the destination port — so multiple senders
    targeting one destination (many instances hitting one storage server)
    naturally saturate that port. Optional packet loss — uniform or
    bursty (Gilbert-Elliott) — exercises the AoE retransmission
    extension, and per-port link state / NIC stalls support the fault
    injection subsystem (see {!Bmcast_faults.Fault}). *)

type t

type port

(** Frame-loss process applied at the switch forwarding point. [Uniform]
    drops each frame independently; [Gilbert] is the classic two-state
    bursty-loss chain, stepped once per forwarded frame: in the good
    state frames drop with [loss_good], in the bad state with
    [loss_bad], and the state flips with the two transition
    probabilities. *)
type loss_model =
  | Uniform of float
  | Gilbert of {
      p_enter_bad : float;
      p_exit_bad : float;
      loss_good : float;
      loss_bad : float;
    }

val create :
  Bmcast_engine.Sim.t ->
  ?port_rate_bytes_per_s:float ->
  ?mtu:int ->
  ?loss_rate:float ->
  ?pool_frames:bool ->
  unit ->
  t
(** One-way latency (propagation plus switch forwarding) is a fixed
    20 us. Defaults: 1 GbE (125e6 B/s), MTU 9000, no loss, frame
    pooling on ([pool_frames:false] allocates a fresh {!Packet.t} per
    frame instead — observationally identical, kept for differential
    testing). Registers fabric-wide derived gauges ([net.frames_sent],
    [net.frames_dropped], [net.link_drops], [net.bytes_delivered],
    [net.port_rate_bytes_per_s]) into the simulation's metrics
    registry — pull-only, evaluated at sample time. *)

val attach : t -> name:string -> (Packet.t -> unit) -> port
(** Attach an endpoint. The callback receives delivered frames, called
    directly from the port's egress job (a {!Bmcast_engine.Sim.job}
    named [name ^ "-egress"]; the uplink's is [name ^ "-uplink"]). It
    runs outside any process, so it must not block or perform any other
    effect (no [Sim.sleep]/[recv]/[spawn]; start a process with
    [Sim.spawn_at] or hand the frame to one through a mailbox for
    deferred work). An exception it raises, a blocking call included,
    makes [Sim.run] raise [Process_failure (name ^ "-egress", e)].

    {b Frame ownership.} Frame records come from a fabric-keyed pool.
    When the callback returns, the fabric recycles the frame — its
    fields become meaningless (payload is set to a sentinel) — unless
    the callback called {!keep_frame} during delivery, in which case the
    holder owns the record and returns it with {!release_frame} when
    done (or simply drops it to the GC, which is always safe, merely
    unpooled). The frame's {e payload} is never recycled with the
    record: its lifetime is the holder's business. *)

val keep_frame : t -> unit
(** Called from inside an rx callback: take ownership of the frame
    being delivered, preventing the fabric from recycling it when the
    callback returns. *)

val release_frame : t -> Packet.t -> unit
(** Return a kept frame record to the pool. The caller must hold the
    only live reference; the record's fields are immediately dead. *)

val pool_free_count : t -> int
(** Frames currently sitting in the free list (for pool tests). *)

val port_id : port -> int

val port_of_id : t -> int -> port
(** Look a port up by its id (for fault injection on an endpoint known
    only by number). Raises [Invalid_argument] for unknown ids. *)

val mtu : t -> int

val set_loss_rate : t -> float -> unit
(** Shorthand for [set_loss_model t (Uniform r)]. *)

val set_loss_model : t -> loss_model -> unit
(** Replace the loss process; a Gilbert chain (re)starts in the good
    state. *)

val loss_model : t -> loss_model

val loss_in_bad : t -> bool
(** Whether the Gilbert-Elliott chain currently sits in its bad state.
    Always [false] under [Uniform] and immediately after any model
    switch ({!set_loss_model} or {!set_loss_rate}) — a diagnostic
    accessor that lets tests pin the channel-reset contract. *)

(** {2 Link faults (fault injection hook points)} *)

val set_link_up : port -> bool -> unit
(** Administratively take an endpoint's link down (or back up). While
    either end of a path is down, frames crossing the switch are
    dropped and counted in {!link_drops}; senders notice only through
    missing responses, as on real hardware. *)

val link_up : port -> bool

val stall : port -> Bmcast_engine.Time.span -> unit
(** Freeze the port's NIC for a duration starting now (a wedged DMA
    engine / PCIe hiccup): nothing serializes in or out until the stall
    expires, but queued frames survive and drain afterwards.
    Overlapping stalls extend to the latest deadline. *)

(** {2 Multicast groups}

    A multicast group is a switch-level fan-out set (IGMP-snooped
    replication): sending to a group id delivers a copy of the frame to
    every member whose link is up, with the loss model rolled
    independently per member. Group ids are negative and never collide
    with port ids; pass one as [~dst] to {!send}/{!send_wait}.

    {b Frame ownership under fan-out.} Each member receives its own
    pooled frame {e record} (the normal rx recycling rules apply), but
    all copies share the sender's {e payload}. Multicast payloads must
    therefore be GC-owned — never scratch-pooled — and no receiver may
    release or mutate them. *)

val mcast_group : t -> int
(** Allocate a fresh, empty multicast group; returns its (negative) id. *)

val mcast_join : port -> group:int -> unit
(** Add the port to the group (idempotent). Raises [Invalid_argument]
    for an unknown group id. *)

val mcast_leave : port -> group:int -> unit
(** Remove the port from the group (no-op if absent). Member order —
    and hence fan-out order — stays join order. *)

val mcast_members : t -> group:int -> int
(** Current member count of a group. *)

val is_mcast : int -> bool
(** Whether a [dst] value names a multicast group (i.e. is negative). *)

val send : port -> dst:int -> size_bytes:int -> Packet.payload -> unit
(** Enqueue a frame for transmission (returns immediately; callable from
    any context). Raises [Invalid_argument] if the frame exceeds
    {!Packet.max_frame} for the fabric MTU or the destination is
    unknown at delivery time. *)

val frame : port -> dst:int -> size_bytes:int -> Packet.payload -> Packet.t
(** A frame record from [port], taken from the fabric's pool, for
    {!send_frame}. A NIC's TX descriptor holds one until the NIC sends
    it; dropping it to the GC instead is safe. *)

val send_frame : port -> Packet.t -> unit
(** [send] of a record from {!frame}, which the fabric owns from then
    on. Raises as [send] does. *)

val send_wait : port -> dst:int -> size_bytes:int -> Packet.payload -> unit
(** Like [send] but models a bounded socket buffer: blocks the calling
    process while the transmit queue is full (process context). A
    single-threaded sender therefore serializes against the wire — the
    original vblade's bottleneck (§4.2). Blocked senders wait on a
    {!Bmcast_engine.Sim.wait_queue} and are admitted first in, first
    out. Each frame that leaves the uplink wakes them all; a woken
    sender is re-checked without being resumed, and one that still
    finds the buffer full keeps waiting behind those that blocked
    before its re-check. *)

(** {2 Statistics} *)

val frames_sent : t -> int
val frames_dropped : t -> int

val link_drops : t -> int
(** Subset of {!frames_dropped} lost to a down link (vs. the loss
    model). *)

val mcast_sent : t -> int
(** Frames submitted to a multicast group (counted once per send). *)

val mcast_deliveries : t -> int
(** Per-member multicast frame copies enqueued for delivery (excludes
    per-member link/loss drops, which count in {!frames_dropped}). *)

val port_bytes_out : port -> int

val port_busy_ns : port -> int
(** Cumulative virtual time the port's uplink spent serializing frames.
    The derivative of this against wall (virtual) time is the uplink's
    utilization fraction: the timeseries layer samples it via
    [vblade.uplink_busy_s] and a rate-of-change watchdog rule on that
    key is a saturation detector. *)
