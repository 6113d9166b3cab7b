(** Figure 11 — storage latency (ioping-style probes; §5.5.2).

    Average latency of small random reads. During deployment, guest
    requests arriving while a background-copy command occupies the
    device are queued — the paper measured +4.3 ms of blocking; after
    de-virtualization the latency returns to bare metal. *)

type result = { label : string; avg_ms : float; p99_ms : float }

val run : unit -> unit
