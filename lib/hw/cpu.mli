(** Physical CPU model: cores, availability windows, VM-exit accounting.

    A core consumes virtual time when running work. A host-side
    interference source (e.g. the KVM baseline's host scheduler) can mark
    a core unavailable for a window; [run] then stalls until the core is
    available again — this is how lock-holder preemption emerges in the
    sysbench-threads experiment.

    VM exits are counted per reason with their time cost; "zero overhead
    after de-virtualization" is asserted by reading these counters. *)

type t
type core

type exit_reason =
  | Pio
  | Mmio
  | Cpuid
  | Preempt_timer
  | Control_reg
  | Init_sipi
  | Other

val create : Bmcast_engine.Sim.t -> cores:int -> t
val num_cores : t -> int
val core : t -> int -> core

(** {2 Running work} *)

val run : core -> Bmcast_engine.Time.span -> unit
(** Consume the given amount of {e available} core time; stalls across
    unavailability windows (process context). *)

(** {2 Availability (host interference hooks)} *)

val enable_interference : t -> unit
(** Declare that cores may be preempted by a host scheduler. Must be
    called before {!set_unavailable_until}; cores without interference
    take a faster simulation path. *)

val set_unavailable_until : core -> Bmcast_engine.Time.t -> unit
(** Mark the core stolen by the host until the given absolute time.
    Raises [Invalid_argument] unless {!enable_interference} was called. *)

val stall_time : core -> Bmcast_engine.Time.span
(** Total time [run] calls on this core spent stalled. *)

(** {2 VM-exit accounting} *)

val record_exit : t -> exit_reason -> cost:Bmcast_engine.Time.span -> unit
val exits : t -> exit_reason -> int
val total_exits : t -> int
val exit_time : t -> Bmcast_engine.Time.span
val reset_exit_counters : t -> unit
