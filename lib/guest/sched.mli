(** Time-sliced guest CPU scheduler.

    Workloads with more threads than cores share the machine's physical
    cores in quantum slices, with a small context-switch cost whenever a
    core changes hands under contention. Threads are pinned
    round-robin (tid mod cores), matching the paper's processor-pinning
    setup. All CPU consumption goes through the runtime's
    {!Bmcast_platform.Cpu_model}, so virtualization taxes apply to the
    sliced work exactly as to any other burst. *)

type t

val create : Bmcast_platform.Runtime.t -> t

val run :
  t -> tid:int -> work:Bmcast_engine.Time.span -> mem_intensity:float -> unit
(** Consume [work] of CPU time on thread [tid]'s core, yielding the core
    to contending threads at each quantum boundary (process context). *)

val contended_acquires : t -> int
(** How many slices started while another thread was waiting for the
    same core (a contention measure). *)
