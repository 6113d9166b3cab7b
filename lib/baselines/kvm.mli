(** KVM-with-ELI baseline (§5, "a state-of-the-art VMM").

    Models the paper's comparison stack: KVM (Linux 3.9 + the ELI
    exit-less-interrupt patch), processor pinning, 2 GB huge pages,
    para-virtual (virtio) storage over a local disk or an NFS/iSCSI
    image backend, and direct device assignment for InfiniBand.

    Cost structure, each visible in a different figure:
    - nested paging + host cache pollution on memory-bound work (Fig 9);
    - a per-request virtio overhead on storage (Fig 10);
    - a per-operation IOMMU/posting overhead on InfiniBand that latency
      tests see but bandwidth tests pipeline away (Figs 12/13);
    - host-scheduler core steals plus per-yield VM exits, which compound
      into lock-holder preemption on contended workloads (Fig 8);
    - and, unlike BMcast, none of it ever goes away. *)

type backend = Local | Remote of Bmcast_proto.Remote_block.client

type t

val create : Bmcast_platform.Machine.t -> backend:backend -> t
(** Configure the hypervisor on a machine: installs CPU taxes, host
    scheduler interference, and the IB overhead. No simulated time
    passes. *)

val boot_host : t -> unit
(** Boot the KVM host (the paper measured 30 s; process context). *)

val guest_boot_extra : Bmcast_engine.Time.span
(** Fixed guest pre-boot cost (QEMU init, SeaBIOS, bootloader). *)

val cpu_model : t -> Bmcast_platform.Cpu_model.t

val runtime : t -> Bmcast_platform.Runtime.t
(** Assemble the guest-visible runtime. *)

val ib_op_overhead : Bmcast_engine.Time.span
(** Per-RDMA-op posting overhead under device assignment (IOMMU). *)
