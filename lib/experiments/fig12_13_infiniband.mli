(** Figures 12 & 13 — InfiniBand RDMA throughput and latency
    (ib_rdma_bw / ib_rdma_lat, 64 KB x 1000; §5.5.3).

    Throughput is identical everywhere — the RDMA hardware's command
    queuing hides per-op virtualization overhead behind wire
    serialization. Latency is synchronous, so KVM's IOMMU adder lands
    in full (+23.6 %) while BMcast stays under 1 %. *)

type result = {
  label : string;
  bw_gb_s : float;
  lat_us : float;
}

val measure : ?iterations:int -> unit -> result list
(** 64 KB transfers. Default: 1000 iterations. *)

val run : unit -> unit
