(** Figure 14 — moderating background copy via the VMM-write interval
    (§5.6).

    Sweeps the interval between background-copy writes from 1 s down to
    1 us and then full speed (no interval), measuring the guest's
    sequential read (a) and write (b) throughput alongside the VMM's own
    write throughput. The guest-I/O-frequency suspension is disabled for
    this experiment (the sweep isolates the interval knob). As the
    interval shrinks the guest loses throughput and the VMM gains it;
    their sum stays below bare metal because the two streams seek
    against each other — both paper observations. *)

type point = {
  interval_label : string;
  guest_mb_s : float;
  vmm_mb_s : float;
}

val measure :
  ?intervals:(string * Bmcast_engine.Time.span) list ->
  guest_op:[ `Read | `Write ] ->
  unit ->
  point list
(** One point per interval. The default is the paper's full sweep, 1 s
    down to 1 us, then full speed; the golden regression test runs a
    3-point subset. *)

val run : unit -> unit
