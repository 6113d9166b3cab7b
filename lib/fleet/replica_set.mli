(** Replica groups for the storage tier.

    N vblade targets export the same golden image; a replica set gives
    one deployment client (the VMM's AoE initiator) a routing function
    over them, so copy-on-read redirects and background-copy fetches fan
    out across servers instead of funnelling through a single uplink.

    Routing is per {e attempt}: {!route} is consulted on every send,
    including retransmissions, so failover needs no extra machinery —
    when a replica stops answering, the AoE client's timeout fires, the
    retransmit re-routes, and the set steers it to a live replica
    (crashed targets drop out via {!Bmcast_proto.Vblade.is_up}, i.e. the
    same epoch-guarded crash model the fault-injection subsystem drives;
    a replica that merely stops answering is put on probation for a
    cooldown). Responses are fed back through {!observe} to maintain
    per-replica outstanding counts and RTT estimates. *)

type policy =
  | Static_shard of int
      (** Shard by LBA: replica index is [(lba / shard_sectors) mod n].
          Deterministic and cache-friendly (each replica serves a fixed
          stripe), but blind to load. *)
  | Least_outstanding
      (** Pick the live replica with the fewest outstanding commands
          (ties broken by lowest index, for determinism). *)
  | Weighted_rtt
      (** Weighted-random draw with weights inverse to the measured
          per-replica RTT (EWMA over unambiguous, first-attempt
          samples), from the simulation's seeded PRNG. *)

val policy_to_string : policy -> string

val policy_of_string : string -> policy option
(** ["shard"], ["shard:<sectors>"], ["least-outstanding"],
    ["weighted-rtt"]. *)

type t

val create :
  Bmcast_engine.Sim.t ->
  ?policy:policy ->
  Bmcast_proto.Vblade.t list ->
  t
(** One replica set per client. A replica that a retransmit implicates
    sits out 500 ms of probation. Default policy: [Least_outstanding]. *)

val size : t -> int

val port_of : t -> int -> int
(** Fabric port id of replica [i]. *)

val route : t -> Bmcast_proto.Aoe.header -> int
(** Destination port for this send of a request. A tag seen before is a
    retransmission: the previously chosen replica is put on probation
    and the command re-routed. *)

val observe : t -> Bmcast_proto.Aoe.header -> unit
(** Feed a response frame back (the client's receive path calls this
    before completing the command): updates outstanding counts, clears
    probation and — for unambiguous first-attempt responses — the
    replica's RTT estimate. *)

(** {2 Introspection (tests, reports)} *)

val outstanding : t -> int -> int
val requests_routed : t -> int -> int
(** Commands first-routed to replica [i] (retransmits not re-counted). *)

val failovers : t -> int
(** Retransmissions that switched replica. *)

val rtt_estimate_ms : t -> int -> float
(** Current EWMA RTT of replica [i], in milliseconds. *)
