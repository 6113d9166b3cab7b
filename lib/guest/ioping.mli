(** ioping-style storage latency probe (§5.5.2): timed small random
    reads, one at a time. The paper issued 100 requests with a 4 KB
    block size; during deployment the I/O-multiplexing blocking time
    shows up directly in this latency. *)

type result = {
  latencies : Bmcast_engine.Stats.Histogram.t;
  avg_ms : float;
}

val run :
  Bmcast_platform.Runtime.t ->
  ?requests:int ->
  unit ->
  result
(** Probes 4 KB reads over a 1 MB working set (the paper's setup), one
    every 100 ms (process context). Defaults: 100 requests. *)
