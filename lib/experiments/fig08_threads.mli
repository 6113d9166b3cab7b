(** Figure 8 — SysBench thread benchmark, 1-24 threads (§5.5.1).

    Mutex acquire-yield-release loops. KVM's per-yield VM exits and
    host-scheduler steals compound with lock contention (lock-holder
    preemption): +68 % at 24 threads. BMcast during deployment traps
    almost nothing: +6 %. *)

type point = {
  threads : int;
  bare_ms : float;
  deploy_ms : float;
  kvm_ms : float;
}

val measure : ?thread_counts:int list -> unit -> point list
(** Default sweep: 1, 2, 4, 8, 12, 16, 20, 24. *)

val run : unit -> unit
