(** AoE target (vblade) with a worker thread pool.

    The original vblade is single-threaded and "becomes a performance
    bottleneck when the VMM sends a significant volume of read requests";
    the paper added a thread pool (§4.2). [workers = 1] reproduces the
    original; the ablation benchmark sweeps pool sizes.

    Each request costs per-request and per-sector CPU time on a worker,
    plus a disk access (the disk serializes across workers like a real
    spindle); response data is streamed back as MTU-sized fragments. *)

type t

val create :
  Bmcast_engine.Sim.t ->
  fabric:Bmcast_net.Fabric.t ->
  name:string ->
  disk:Bmcast_storage.Disk.t ->
  ?workers:int ->
  ?ram_cache:bool ->
  unit ->
  t
(** A server that spends 1.5 ms of CPU per request (a userspace daemon
    doing filesystem I/O per command) plus 400 ns per sector. Defaults:
    8 workers, no RAM cache (reads hit the server disk). *)

val port : t -> Bmcast_net.Fabric.port
val port_id : t -> int

(** {2 Crash / restart (fault injection hook points)}

    A crash models the daemon (or its host) dying: queued requests are
    discarded, responses being assembled are suppressed, and incoming
    frames are ignored until {!restart}. The backing disk is
    non-volatile, so a restarted server resumes serving the same
    content; clients recover lost commands by retransmission. *)

val crash : t -> unit
val restart : t -> unit
val is_up : t -> bool
val crashes : t -> int

val disk_error_retries : t -> int
(** Transient {!Bmcast_storage.Disk.Read_error}s the server absorbed by
    retrying before answering. *)

val bytes_served : t -> int

(** {2 Multicast carousel}

    The deployment-time answer to N clients all reading the same boot
    blocks: instead of N unicast streams, the server multicasts the hot
    range to a fabric group as unsolicited read responses (tag
    {!Aoe.mcast_tag}), looping for a bounded number of passes so
    late-joining clients catch blocks they missed; anything still
    missing afterwards arrives via the normal copy-on-read path.
    Fragment payloads are GC-owned (never scratch-pooled): the fabric's
    fan-out shares one payload array across all member deliveries. *)

val multicast :
  t ->
  group:int ->
  lba:int ->
  count:int ->
  ?passes:int ->
  ?gap:Bmcast_engine.Time.span ->
  unit ->
  unit
(** Start the carousel process over [\[lba, lba+count)] (defaults:
    4 passes, 50 ms between passes). Serves from page cache
    ({!Bmcast_storage.Disk.peek_into}); goes silent while the server is
    crashed and resumes on restart. Raises [Invalid_argument] for an
    out-of-bounds range. *)

val mcast_frames_sent : t -> int
val mcast_bytes_sent : t -> int
