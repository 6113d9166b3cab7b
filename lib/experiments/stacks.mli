(** Experiment environments and deployment-stack assembly.

    An {!env} is one simulated testbed: the Ethernet fabric and switch,
    the InfiniBand fabric, and the storage servers (an AoE vblade for
    BMcast, an iSCSI and an NFS server for the baselines), each with its
    own image-filled disk. Stack builders wire a fresh machine into one
    of the paper's configurations and hand back the guest-visible
    {!Bmcast_platform.Runtime.t}. *)

type env = {
  sim : Bmcast_engine.Sim.t;
  fabric : Bmcast_net.Fabric.t;
  ib : Bmcast_net.Ib.t;
  vblade : Bmcast_proto.Vblade.t;
  iscsi : Bmcast_proto.Remote_block.server;
  nfs : Bmcast_proto.Remote_block.server;
  image_sectors : int;
  disk_profile : Bmcast_storage.Disk.profile;
}

val make_env :
  ?seed:int ->
  ?image_gb:int ->
  ?disk_profile:Bmcast_storage.Disk.profile ->
  ?vblade_ram_cache:bool ->
  ?trace:Bmcast_obs.Trace.t ->
  ?metrics:Bmcast_obs.Metrics.t ->
  unit ->
  env
(** Defaults: seed 42, the paper's 32-GB image, the Constellation.2
    disk, disk-backed AoE server. [vblade_ram_cache] serves the image
    from the server's page cache — how a provider would run a popular
    image at scale. [trace]/[metrics] attach an observability tracer
    and metrics registry to the simulation (default: disabled). *)

val machine :
  env -> name:string ->
  ?disk_kind:Bmcast_platform.Machine.disk_kind ->
  unit ->
  Bmcast_platform.Machine.t
(** A testbed node attached to both fabrics (Ethernet and InfiniBand). *)

(** {2 Stacks}

    All builders must run in process context except where noted. *)

val bare : env -> Bmcast_platform.Machine.t -> Bmcast_platform.Runtime.t
(** Pre-deployed bare metal: fills the local disk with the image
    instantly and attaches the native driver. *)

val bmcast :
  env ->
  Bmcast_platform.Machine.t ->
  ?params:Bmcast_core.Params.t ->
  unit ->
  Bmcast_platform.Runtime.t * Bmcast_core.Vmm.t
(** Boot the BMcast VMM (timed) and attach the guest driver under it.
    The VMM keeps its memory reserved after de-virtualization. *)

val bmcast_params : env -> Bmcast_core.Params.t
(** Default deployment parameters for this env's image size. *)

val kvm_local :
  env -> Bmcast_platform.Machine.t ->
  Bmcast_platform.Runtime.t * Bmcast_baselines.Kvm.t
(** KVM with a local pre-filled disk (no timed host boot; call
    {!Bmcast_baselines.Kvm.boot_host} for startup experiments). *)

val kvm_remote :
  env -> Bmcast_platform.Machine.t -> [ `Nfs | `Iscsi ] ->
  Bmcast_platform.Runtime.t * Bmcast_baselines.Kvm.t

val netboot :
  env -> Bmcast_platform.Machine.t ->
  Bmcast_platform.Runtime.t * Bmcast_baselines.Net_boot.t

val iscsi_client :
  env -> name:string -> Bmcast_proto.Remote_block.client

val run : env -> (unit -> unit) -> unit
(** Spawn the scenario as a process at the current time and run the
    simulation (outside process context). *)
