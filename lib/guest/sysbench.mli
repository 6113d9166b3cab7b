(** SysBench thread and memory micro-benchmarks (§5.5.1).

    {b Threads}: [threads] workers repeatedly acquire-yield-release 8
    mutexes. Oversubscription beyond the core count stretches on-CPU
    time; if the platform's host scheduler preempts a vCPU while its
    thread holds a mutex, every waiter stalls — the lock-holder
    preemption effect that costs KVM 68 % at 24 threads while BMcast
    (which traps almost nothing) stays within 6 %.

    {b Memory}: write [total] bytes in blocks of [block_bytes]. Larger
    blocks touch more fresh pages per operation, so the nested-paging
    tax weighs more heavily at 16 KB than at 1 KB — the trend in
    Figure 9. *)

type threads_result = { elapsed : Bmcast_engine.Time.span; lock_ops : int }

val run_threads : Bmcast_platform.Runtime.t -> threads:int -> threads_result
(** 1000 iterations per thread over 8 mutexes (process context). *)

type memory_result = { throughput_mib_s : float }

val run_memory : Bmcast_platform.Runtime.t -> block_bytes:int -> memory_result
(** 64 rounds of 1 MiB each (process context). *)

val memory_intensity : block_bytes:int -> float
(** The modelled memory-boundedness of a block size (exposed for
    tests). *)
