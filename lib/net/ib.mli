(** InfiniBand fabric model (4X QDR, RDMA verbs).

    Calibrated to the paper's Mellanox MT26428 / Grid Director 4036E
    setup. Two properties matter for Figures 6, 12 and 13:

    - {e bandwidth} tests pipeline many outstanding work requests, so a
      per-operation posting overhead (IOMMU translation, VM exits, cache
      pollution under KVM) is hidden behind wire serialization — all
      configurations saturate equally (Fig 12);
    - {e latency} tests are synchronous, so the same per-op overhead
      lands directly on the measured latency (KVM +23.6 %, Fig 13).

    Per-endpoint [op_overhead] models that virtualization adder; it is
    zero on bare metal and under de-virtualized BMcast. *)

type t
type endpoint

val create : Bmcast_engine.Sim.t -> t
(** A fabric at 3.2e9 B/s effective (QDR 4X after 8b/10b) with a 1.3 us
    base RDMA latency. *)

val attach : t -> name:string -> endpoint

val set_op_overhead : endpoint -> Bmcast_engine.Time.span -> unit
(** Per-operation posting overhead charged at this endpoint (the
    virtualized side). *)

val op_overhead : endpoint -> Bmcast_engine.Time.span

val post :
  endpoint -> dst:endpoint -> bytes:int -> on_complete:(unit -> unit) -> unit
(** Post an RDMA work request (process context: blocks only for the
    posting overhead). Completions are delivered in posting order. *)

val rdma : endpoint -> dst:endpoint -> bytes:int -> unit
(** Synchronous RDMA: post and wait for completion. *)

(** {2 Two-sided messaging (MPI substrate)} *)

val send_msg : endpoint -> dst:endpoint -> bytes:int -> unit
(** Blocking send of a message (completes when delivered). *)

val recv_msg : endpoint -> src:endpoint -> int
(** Blocking receive of the next message from [src]; returns its size. *)

val bytes_transferred : t -> int
