(** The BMcast VMM: boot, streaming deployment, de-virtualization.

    Lifecycle (§3.1):
    + {e initialization} — [boot] network-loads the tiny VMM over PXE
      (~2 MB payload), reserves its 128 MB of memory off the top of the
      map, starts the polling driver on the dedicated management NIC and
      installs the device mediator; total ~5 s;
    + {e deployment} — copy-on-read serves the guest while the
      background copy fills the local disk under moderation;
    + {e de-virtualization} — once every image sector is filled the VMM
      waits for the mediator to quiesce, turns nested paging off core by
      core (no IPI needed: identity mapping is constant, §3.4), removes
      the interposers and clears every CPU tax;
    + {e bare-metal} — the guest owns the hardware; the trap and exit
      counters stop advancing (asserted by the test suite).

    The prototype paper leaves the VMM memory reserved after
    de-virtualization; [release_memory:true] enables the memory-hot-plug
    mitigation of §4.3 as an extension. *)

type t

val boot :
  Bmcast_platform.Machine.t ->
  params:Params.t ->
  server_port:int ->
  ?route:(Bmcast_proto.Aoe.header -> int) ->
  ?on_aoe_response:(Bmcast_proto.Aoe.header -> unit) ->
  ?mcast_group:int ->
  ?release_memory:bool ->
  ?hide_mgmt_nic:bool ->
  ?nic:[ `Mgmt | `Prod | `Shared ] ->
  ?boot_prefetch:(int * int) list ->
  ?resume:bool ->
  ?vmxoff:[ `Resident | `Guest_module ] ->
  unit ->
  t
(** Perform the timed VMM boot (process context): PXE load + VMM init,
    then deployment begins. [server_port] is the AoE target's fabric
    port. [route], when given, overrides the destination per request
    {e send} (it is consulted again on every retransmission) — the hook
    a {!Bmcast_fleet.Replica_set} uses to fan copy-on-read and
    background-copy traffic out across replicated storage servers and
    to fail over when one crashes; [on_aoe_response] observes every AoE
    response frame the initiator receives (called before the client
    processes it, e.g. to maintain per-replica RTT / outstanding
    accounting). [hide_mgmt_nic] keeps the management NIC's PCI config
    space hidden from the guest (the §4.3 security option; the VMM then
    stays resident as a config-space filter, at negligible cost). [nic]
    selects the dedicated management NIC (default), exclusive use of
    the production NIC ([`Prod]), or true sharing of the production NIC
    with the guest through the shadow-ring mediator ([`Shared], §6).
    [boot_prefetch] enables §3.3's optional boot-working-set prefetch,
    given as [(lba, sectors)] ranges. [mcast_group], when given, joins
    the VMM's NIC to that fabric multicast group and subscribes to the
    storage tier's carousel of hot boot blocks
    ({!Bmcast_proto.Vblade.multicast}): frames covering still-empty
    sectors are copied off the shared payload and written through the
    mediator's atomic write-if-empty path; the rest count as
    duplicates (see [totals.mcast_bytes]/[totals.mcast_dups]). While
    carousel frames keep arriving the background copy is paused — the
    stream is already filling every subscriber — and it resumes as the
    unicast mop-up backstop once the carousel goes quiet (~600 ms with
    no frame). Copy-on-read is never deferred. *)

val shutdown : t -> unit
(** Stop the copy threads, persist the fill bitmap to its protected
    on-disk region (§3.3) and tear the VMM down (process context). A
    subsequent [boot ~resume:true] on the same machine resumes the
    deployment instead of restarting it. *)

val phase : t -> Bmcast_platform.Runtime.phase
val cpu_model : t -> Bmcast_platform.Cpu_model.t

val wait_deployed : t -> unit
(** Block until the background copy has filled the image (process
    context). *)

val wait_devirtualized : t -> unit

val devirtualized_at : t -> Bmcast_engine.Time.t option

val progress : t -> float
(** Deployed fraction of the image. *)

val guest_io_rate : t -> float

(** {2 Introspection for experiments} *)

type totals = {
  redirects : int;
  redirected_bytes : int;
  multiplexed_ops : int;
  queued_commands : int;
  background_bytes : int;
  moderation_suspensions : int;
  vm_exits : int;
  aoe_retransmits : int;
  aoe_escalations : int;
      (** AoE commands kept alive past the normal retry budget (storage
          server down longer than the retransmission window) *)
  fetch_failures : int;
      (** background-copy fetches that timed out and were retried *)
  mcast_bytes : int;
      (** bytes filled from the multicast carousel (written sectors
          only, not frames that lost the write-if-empty race) *)
  mcast_dups : int;
      (** multicast frames that carried no still-empty sector *)
}

val totals : t -> totals
val bitmap : t -> Bitmap.t
val aoe_client : t -> Bmcast_proto.Aoe_client.t

val events : t -> (Bmcast_engine.Time.t * string) list
(** Timestamped lifecycle log (boot, deployment, de-virtualization,
    shutdown), oldest first. *)
