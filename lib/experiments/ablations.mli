(** Ablations of BMcast's design choices (regenerates the claims the
    paper makes in prose rather than figures).

    - {b vblade thread pool} (§4.2): single-threaded target vs. worker
      pool under concurrent read streams.
    - {b jumbo frames} (§4.2): AoE bulk throughput at MTU 9000 vs 1500.
    - {b retransmission} (§4.2): goodput under packet loss.
    - {b boot prefetch} (§3.3): eagerly copying the boot working set
      ahead of the guest.
    - {b shared vs dedicated NIC} (§6): deployment over the production
      NIC while the guest uses it.
    - {b SSD local disks} (§2/§5.1): image copying stays network-bound,
      so SSDs barely help it.
    - {b OS transparency} (§4.3): a Windows-profile guest deploys
      through the same unmodified stack as the Ubuntu one. *)

val run : unit -> unit
(** Run every ablation above, in order. *)
