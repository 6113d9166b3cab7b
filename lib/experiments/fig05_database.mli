(** Figure 5 — memcached and Cassandra under YCSB across the
    deployment → de-virtualization timeline (§5.2).

    For each database: a bare-metal baseline, a KVM run, and a BMcast
    run that launches YCSB right after the streaming-deployed instance
    boots. Reports the deployment-phase averages, the post-
    de-virtualization averages (which must converge to bare metal) and
    the deployment duration (memcached ~16 min; Cassandra ~17 min —
    longer because its commit log keeps the moderation backing off). *)

type result = {
  db : string;
  bare_kops : float;
  bare_lat_us : float;
  deploy_kops : float;
  deploy_lat_us : float;
  after_kops : float;
  after_lat_us : float;
  kvm_kops : float;
  kvm_lat_us : float;
  deploy_minutes : float;
  series : (float * float * float) list;
      (** (t seconds, kops, latency us) for the BMcast run *)
}

val run : unit -> unit
