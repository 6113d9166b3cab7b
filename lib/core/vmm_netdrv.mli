(** The VMM's polling NIC driver (§4.3).

    BMcast ships tiny drivers (PRO/1000: 718 LoC; X540: 614; RTL816x:
    757; NetXtreme: 620) that only need to "send and receive packets
    with polling" on the dedicated management NIC. This is that driver
    against the e1000-style ring model: interrupts stay off, a poll job
    (a {!Bmcast_engine.Sim.job} named ["vmm-netdrv-poll"]) drains the RX
    ring on the preemption-timer cadence, and TX descriptors are pushed
    straight through the tail register. *)

type t

val attach :
  Bmcast_platform.Machine.t ->
  ?which:[ `Mgmt | `Prod ] ->
  poll_interval:Bmcast_engine.Time.span ->
  on_frame:(Bmcast_net.Packet.t -> unit) ->
  unit ->
  t
(** Start polling a NIC (default: the dedicated management NIC;
    [`Prod] models the shared-NIC configuration of §6). The driver
    empties and programs the NIC's own default rings, so attaching
    again (a resumed VMM) allocates no ring. The first poll
    runs at the current time; an idle ring backs the interval off up to
    64×. [on_frame] runs inside the poll job: it must not block, and an
    exception it raises makes [Sim.run] raise
    [Process_failure ("vmm-netdrv-poll", e)]. *)

val send : t -> dst:int -> size_bytes:int -> Bmcast_net.Packet.payload -> unit
val stop : t -> unit
(** Stop polling and publish no more RX buffers: the NIC drops every
    later frame (counted in {!Bmcast_net.Nic.rx_dropped}), and frames
    still in the RX ring go back to the fabric pool undelivered.
    Stopping twice is a no-op. A new {!attach} restarts the NIC. *)
