(** Figure 6 — MPI collective latency on a 10-node InfiniBand cluster
    (§5.3, OSU micro-benchmarks).

    Three cluster configurations: all nodes bare-metal, all on BMcast
    during streaming deployment (pass-through InfiniBand: no per-op
    adder), and all on KVM with direct device assignment (per-op IOMMU
    adder). The headline shape: KVM's Allgather at 235 % of bare metal,
    BMcast at ~100 %. *)

type result = {
  collective : string;
  bare_us : float;
  bmcast_us : float;
  kvm_us : float;
}

val measure : ?nodes:int -> ?bytes:int -> unit -> result list
(** Defaults: 10 nodes, 8 KB messages. *)

val run : unit -> unit
