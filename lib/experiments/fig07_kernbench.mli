(** Figure 7 — kernel-compile elapsed time (§5.4).

    kernbench (`make -j12`, minimal config) on bare metal, on BMcast
    while deployment is in progress (paper: +8 %), on BMcast after
    de-virtualization (identical to bare), and on KVM (+3 %). *)

type result = {
  bare_s : float;
  deploy_s : float;
  devirt_s : float;
  kvm_s : float;
}

val run : unit -> unit
