(** Figure 9 — SysBench memory benchmark, 1-16 KB blocks (§5.5.1).

    Throughput of repeated allocate-and-write rounds. Nested paging
    costs grow with block size (more fresh pages touched per
    operation): KVM loses 35 % at 16 KB, BMcast during deployment only
    6 %. *)

type point = {
  block_kb : int;
  bare_mib_s : float;
  deploy_mib_s : float;
  kvm_mib_s : float;
}

val measure : ?block_kbs:int list -> unit -> point list
(** Default sweep: 1, 2, 4, 8, 16 KB. *)

val run : unit -> unit
