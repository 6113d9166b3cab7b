(** Fleet-scale deployment experiment: machines × storage replicas.

    The paper's elasticity argument is about provisioning {e fleets};
    this experiment provisions [machines] concurrent BMcast deployments
    against a replicated storage tier of [replicas] vblade targets (all
    exporting the same golden image) and measures, per machine:

    - {e time-to-first-boot} — fleet start to guest-OS-up (the instance
      is serving, the paper's agility number), and
    - {e time-to-devirt} — fleet start to de-virtualization (the image
      is fully local, the VMM is gone).

    Traffic fans out across replicas through a per-client
    {!Bmcast_fleet.Replica_set}; admission and start pacing go through
    the {!Bmcast_fleet.Scheduler}. Both distributions land in
    [Bmcast_obs.Metrics] histograms, and {!run} writes the sweep as
    [BENCH_fleet.json]. *)

module Replica_set = Bmcast_fleet.Replica_set
module Scheduler = Bmcast_fleet.Scheduler

type distribution = [ `Unicast | `P2p | `Mcast ]
(** How image bytes reach the fleet: per-client replica fan-out (the
    PR-8 baseline), peer-to-peer serving through a {!Bmcast_fleet.Peer}
    swarm, or the first replica's {!Bmcast_proto.Vblade.multicast}
    carousel of hot boot blocks. *)

val distribution_to_string : distribution -> string

type summary = {
  p50 : float;
  p90 : float;
  p99 : float;
  mean : float;
  max : float;
}

type result = {
  machines : int;
  replicas : int;
  image_mb : int;
  policy : string;
  sched : string;
  distribution : string;  (** {!distribution_to_string} of the mode *)
  ttfb : summary;  (** time-to-first-boot, seconds since fleet start *)
  ttdv : summary;  (** time-to-devirt, seconds since fleet start *)
  failovers : int;
  peak_queue : int;
  peak_in_service : int;
  admitted_per_server : int array;
  server_bytes : int;  (** aggregate bytes served by the storage tier *)
  p2p_routed : int;  (** commands first routed to a peer (P2P mode) *)
  p2p_failovers : int;
      (** peer-routed commands that timed out back to the replicas *)
  p2p_served_bytes : int;  (** aggregate bytes served peer-to-peer *)
  gossip_announces : int;
      (** gossip announcements the swarm tracker folded in *)
  mcast_tx_bytes : int;  (** carousel bytes the storage tier multicast *)
  mcast_fill_bytes : int;
      (** image bytes clients filled from the carousel (multicast mode) *)
  mcast_dups : int;
      (** carousel frames that carried no still-empty sector *)
  sim_events : int;  (** scheduler events the whole run executed *)
  analytics : Bmcast_obs.Analytics.t;
      (** boot-stage breakdown, critical-path attribution and SLO
          evaluation folded from the run's boot-pipeline spans *)
  alert_count : int;  (** watchdog alerts fired during the run *)
  timeline : string;
      (** {!Bmcast_obs.Timeseries.timeline_json} of the run's sampler —
          fleet-level series (plus per-replica health) over virtual
          time, embedded verbatim in [BENCH_fleet.json] *)
  watch : string;
      (** {!Bmcast_obs.Watchdog.alerts_json}: alerts and
          fault→alert detection latencies *)
  images_ok : bool option;
      (** with [digest_images]: every client disk equals the golden
          image sector-for-sector after deployment *)
  image_digest : string option;
      (** with [digest_images]: hex digest over the canonical content of
          every client disk in fleet order — equal digests across runs
          or distribution modes mean byte-identical images *)
}

val default_rules : Bmcast_obs.Watchdog.rule list
(** The watchdog rule {!deploy_fleet} runs when the caller brings no
    watchdog: [server-down: vblade.up < 0.5]. *)

val deploy_fleet :
  ?seed:int ->
  ?image_mb:int ->
  ?policy:Replica_set.policy ->
  ?sched:Scheduler.wave_policy ->
  ?limit_per_server:int ->
  ?crashes:(Bmcast_engine.Time.span * int) list ->
  ?restarts:(Bmcast_engine.Time.span * int) list ->
  ?distribution:distribution ->
  ?uplink_mbps:float ->
  ?mcast_passes:int ->
  ?peer_crashes:(Bmcast_engine.Time.span * int) list ->
  ?chaos:
    (Bmcast_engine.Sim.t ->
    Bmcast_net.Fabric.t ->
    Bmcast_proto.Vblade.t list ->
    unit) ->
  ?digest_images:bool ->
  ?trace:Bmcast_obs.Trace.t ->
  ?metrics:Bmcast_obs.Metrics.t ->
  ?timeseries:Bmcast_obs.Timeseries.t ->
  ?watchdog:Bmcast_obs.Watchdog.t ->
  ?profile:Bmcast_obs.Profile.t ->
  ?boot_profile:Bmcast_guest.Os.profile ->
  ?slo_s:float ->
  machines:int ->
  replicas:int ->
  unit ->
  result
(** Build a fresh simulated testbed (fabric + [replicas] image-filled
    vblade servers + [machines] machines), deploy the whole fleet, and
    run to completion. [crashes]/[restarts] schedule
    {!Bmcast_proto.Vblade.crash}/[restart] of replica [i] at a span
    after fleet start (a crash with no restart leaves the tier degraded
    for good — deployments must converge on the survivors). Defaults:
    seed 42, 256 MB image, least-outstanding routing, all-at-once
    admission, 4 deployments per server, [Os.default_profile] guests
    ([boot_profile] overrides). Servers are always RAM-cached and every
    VMM runs [Params.default].

    Without a caller [trace], a small boot-category-only tracer is
    attached so [analytics] is always populated; with one, the boot
    spans ride along in it. Every run carries live telemetry: a
    {!Bmcast_obs.Metrics} registry (fresh unless [metrics] is given), a
    {!Bmcast_obs.Timeseries} sampler over it (default: 1 s virtual
    interval, bench-filtered to fleet-level plus per-replica series)
    and a {!Bmcast_obs.Watchdog} (default: {!default_rules}).
    deploy_fleet attaches the watchdog to the sampler unless the caller
    supplied {e both} — then the caller owns the wiring (subscriber
    order matters for dashboards).
    Each scheduled crash arms a watchdog expectation, so [watch]
    reports measured detection latencies. [profile] attaches a
    {!Bmcast_obs.Profile} allocation profiler to the run (its figures
    are non-deterministic and live outside [result]). [slo_s] (default
    [120.0]) is the provisioning-time target the [analytics] SLO
    section evaluates.

    Distribution modes. [distribution] (default [`Unicast]) selects how
    image bytes reach the fleet: [`P2p] stands up a
    {!Bmcast_fleet.Peer} swarm — every machine joins as a serving agent
    and routes reads through {!Bmcast_fleet.Peer.route} — and [`Mcast]
    starts the first replica's carousel
    ({!Bmcast_proto.Vblade.multicast}, [mcast_passes] passes spaced
    200 ms apart, starting 500 ms after the VMMs boot) with every
    VMM subscribed via [Vmm.boot ?mcast_group]. [uplink_mbps]
    constrains every fabric port's serialization rate, in megabits per
    second — the knob that makes the distribution strategies diverge
    at simulable scale.
    [peer_crashes] schedules {!Bmcast_fleet.Peer.crash} of machine
    [i]'s agent at a span after fleet start (requests it was serving
    time out and fail over to the replica set). [chaos] runs arbitrary
    fault scheduling against the testbed before the fleet starts —
    the equivalence suite uses it to inject seeded loss/crash/flap
    plans. [digest_images] fills [images_ok]/[image_digest] by
    checking every client disk against the golden image after the run
    (O(machines × image) — keep images small).

    @raise Invalid_argument before the run if [machines] or [replicas]
    is not positive, or a [crashes]/[restarts] index is not a replica
    ([0 .. replicas-1]) or a [peer_crashes] index is not a machine
    ([0 .. machines-1]). *)

val write_metrics : string -> result list -> unit
(** Write the sweep snapshot as a JSON document (one entry per config,
    each carrying its own [image_mb]). *)

val run : unit -> result list
(** The bench sweep: fleet sizes {1,4,16} × replicas {1,2,4} deploying
    256 MB images with {!deploy_fleet}'s default routing and admission.
    Prints the report table. *)

val run_crossover : ?metrics_out:string -> unit -> result list
(** The distribution-crossover sweep (the headline result): at each
    fleet size in {25, 100, 250, 1000} deploy a 64 MB image with
    replica fan-out (4 replicas), P2P (2 replicas + swarm) and
    multicast (2 replicas + carousel) under constrained 100 Mb/s
    uplinks and identical admitted concurrency (16 boots in flight),
    and report the client count where each alternative starts
    beating replica fan-out on p50 time-to-devirt. The image is big
    enough that the pipelined background copy — the part peer serving
    and the carousel can actually accelerate — dominates each boot. *)

val run_scale : unit -> result list
(** The cloud-burst sweep: 250 and 1,000 concurrent deployments
    against 16 servers with small 8 MB images and
    {!Bmcast_guest.Os.cloud_minimal} guests. Prints the report table;
    the [fleet] bench entry writes the results into BENCH_fleet.json.
    Exists to exercise the fleet-scale engine path — 250 clients
    complete in seconds, 1,000 in ~half a minute (the cost is the
    simulated AoE copy traffic, not the scheduler), and 10,000 is
    feasible (see [bench fleet10k]). *)
