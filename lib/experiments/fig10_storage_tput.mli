(** Figure 10 — storage throughput (fio, 200 MB sequential, 1 MB
    blocks, direct I/O; §5.5.2).

    Read and write throughput on: bare metal (116.6 / 111.9 MB/s in the
    paper), BMcast during deployment (read −4.1 %), BMcast after
    de-virtualization (read −1.7 %), network boot (continuous NFS
    overhead), KVM with local virtio disk (−10.5 % / −13.6 %) and KVM
    over NFS (−12.3 % / −15.3 %). *)

type result = { label : string; read_mb_s : float; write_mb_s : float }

val run : unit -> unit
