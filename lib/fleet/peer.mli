(** Peer-to-peer image distribution: clients serve extents they hold.

    Deploying N clients from R replicas funnels N copies of the image
    through R uplinks. But every client that has finished (or merely
    progressed) its copy-on-read already holds the hot extents — this
    module turns those clients into additional AoE targets, BitTorrent
    style, so aggregate serving capacity grows with the fleet itself.

    Three pieces:

    - A {e swarm}: per-deployment registry plus a tracker-style
      directory of who holds which chunks, fed by {!Bmcast_proto.Gossip}
      announcements that peers multicast over the AoE fabric (the
      tracker port is the group's subscriber, so gossip cost is O(1) per
      announcement, not O(fleet)).
    - An {e agent} per client machine: its own fabric port serving
      [Ata_read] requests for chunks the local disk fully holds
      (page-cache reads; the guard combines the VMM's fill bitmap with
      the disk's extent accounting). A request for bytes the peer turns
      out not to hold is dropped silently — the requester's AoE timeout
      fires and the router fails it over, exactly like a crashed vblade.
    - A {e router} wrapped around {!Replica_set}: a fresh read whose
      range some live peer advertises goes to the least-loaded such peer;
      everything else — and every retransmission of a peer-routed
      command — falls back to the replica set, with the implicated peer
      put on probation.

    {b Frame ownership.} Peer serves follow the vblade discipline: the
    whole-command staging buffer and each fragment's data array come
    from [Content.Scratch]; a fragment array is owned by the wire and
    released by its final consumer, the requester's reassembly path.
    Gossip announcements ride GC-owned payloads and are never pooled. *)

type t
(** A swarm: one per deployment. *)

val create :
  Bmcast_engine.Sim.t ->
  fabric:Bmcast_net.Fabric.t ->
  image_sectors:int ->
  chunk_sectors:int ->
  t
(** Agents announce every 250 ms, a peer sits out 500 ms of probation
    after a failover, and serving costs 300 us per request + 400 ns per
    sector (a peer is a lean in-kernel responder, but it is also busy
    booting a guest). Registers swarm-wide [p2p.*] / [gossip.*] counters
    in the simulation's metrics registry. *)

type agent

val join :
  t ->
  name:string ->
  has_chunk:(int -> bool) ->
  peek:(lba:int -> count:int -> Bmcast_storage.Content.t array -> unit) ->
  unit ->
  agent
(** Attach a peer for machine [name] (port ["<name>-peer"]).
    [has_chunk c] must answer whether the local disk {e fully} holds
    chunk [c] — the VMM wires it to its fill bitmap combined with
    {!Bmcast_storage.Disk.mapped_sectors_in}; [peek] reads served
    sectors from the local page cache. A background announcer rescans
    unheld chunks every announce interval and multicasts a
    {!Bmcast_proto.Gossip} summary when coverage grew. *)

val crash : agent -> unit
(** The peer's host dies mid-serve: queued requests are discarded,
    in-flight responses are suppressed (epoch guard), the announcer goes
    silent, and the directory stops offering the peer. Requesters
    recover by AoE retransmission, which the router steers back to the
    replica set. *)

val served_bytes : agent -> int

(** {2 Routing} *)

type router
(** Per-client routing state layered over a {!Replica_set.t}; plug
    {!route}/{!observe} into [Vmm.boot]'s [?route]/[?on_aoe_response]
    hooks in place of the bare replica-set functions. *)

val router : t -> ?self:agent -> Replica_set.t -> router
(** [self] is the machine's own agent, excluded from peer selection. *)

val route : router -> Bmcast_proto.Aoe.header -> int
val observe : router -> Bmcast_proto.Aoe.header -> unit

(** {2 Introspection (tests, reports)} *)

val announces_received : t -> int

val p2p_routed : router -> int
(** Commands this router first sent to a peer. *)

val p2p_failovers : router -> int
(** Peer-routed commands that timed out and fell back to the replica
    set. *)
