module Sim = Bmcast_engine.Sim
module Time = Bmcast_engine.Time
module Content = Bmcast_storage.Content
module Disk = Bmcast_storage.Disk
module Fabric = Bmcast_net.Fabric
module Vblade = Bmcast_proto.Vblade
module Machine = Bmcast_platform.Machine
module Runtime = Bmcast_platform.Runtime
module Block_io = Bmcast_guest.Block_io
module Os = Bmcast_guest.Os
module Bitmap = Bmcast_core.Bitmap
module Params = Bmcast_core.Params
module Vmm = Bmcast_core.Vmm
module Metrics = Bmcast_obs.Metrics
module Stats = Bmcast_obs.Stats
module Peer = Bmcast_fleet.Peer
module Replica_set = Bmcast_fleet.Replica_set
module Scheduler = Bmcast_fleet.Scheduler
module Trace = Bmcast_obs.Trace
module Analytics = Bmcast_obs.Analytics

type distribution = [ `Unicast | `P2p | `Mcast ]

let distribution_to_string = function
  | `Unicast -> "unicast"
  | `P2p -> "p2p"
  | `Mcast -> "mcast"

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
  distribution : string;
  ttfb : summary;
  ttdv : summary;
  failovers : int;
  peak_queue : int;
  peak_in_service : int;
  admitted_per_server : int array;
  server_bytes : int;
  p2p_routed : int;
  p2p_failovers : int;
  p2p_served_bytes : int;
  gossip_announces : int;
  mcast_tx_bytes : int;
  mcast_fill_bytes : int;
  mcast_dups : int;
  sim_events : int;
  analytics : Analytics.t;
  alert_count : int;
  timeline : string;
  watch : string;
  images_ok : bool option;
  image_digest : string option;
}

(* Per-machine series ([|m=...] labels) grow with fleet size; the
   bench-embedded timeline keeps fleet-level keys plus the small
   per-replica health series so its size is bounded by the replica
   count, not the client count. *)
let bench_ts_filter k =
  match String.index_opt k '|' with
  | None -> true
  | Some i ->
    let p = String.sub k 0 i in
    p = "vblade.up" || p = "replica.up" || p = "fleet.stage"

let default_rules =
  [ Bmcast_obs.Watchdog.threshold ~name:"server-down" ~key:"vblade.up"
      Bmcast_obs.Watchdog.Below 0.5 ]

let summarize h =
  { p50 = Stats.Histogram.percentile h 50.0;
    p90 = Stats.Histogram.percentile h 90.0;
    p99 = Stats.Histogram.percentile h 99.0;
    mean = Stats.Histogram.mean h;
    max = Stats.Histogram.max h }

let deploy_fleet ?(seed = 42) ?(image_mb = 256)
    ?(policy = Replica_set.Least_outstanding)
    ?(sched = Scheduler.All_at_once) ?(limit_per_server = 4) ?(crashes = [])
    ?(restarts = []) ?(distribution = `Unicast) ?uplink_mbps
    ?(mcast_passes = 16) ?(peer_crashes = []) ?chaos ?(digest_images = false)
    ?trace ?metrics ?timeseries ?watchdog ?profile ?boot_profile ?(slo_s = 120.0) ~machines ~replicas () =
  if machines <= 0 then invalid_arg "Scaleout.deploy_fleet: machines";
  if replicas <= 0 then invalid_arg "Scaleout.deploy_fleet: replicas";
  (* Fault indices fire inside scheduled callbacks, so check them before
     the run rather than failing (or, for peers, doing nothing) midway. *)
  let check_index what bound (_, i) =
    if i < 0 || i >= bound then
      invalid_arg (Printf.sprintf "Scaleout.deploy_fleet: %s index %d" what i)
  in
  List.iter (check_index "crash" replicas) crashes;
  List.iter (check_index "restart" replicas) restarts;
  List.iter (check_index "peer crash" machines) peer_crashes;
  (* The stage analytics need the boot-pipeline spans. With a
     caller-supplied tracer they ride along in it; otherwise attach a
     small boot-category-only ring (~5 spans per machine, and tracing
     is inert by contract, so attaching it changes nothing else). *)
  let trace =
    match trace with
    | Some tr -> tr
    | None ->
      Trace.create ~capacity:((machines * 6) + 64) ~categories:[ "boot" ] ()
  in
  (* Fleet runs always carry telemetry: a live registry, a sampler over
     it (bench-filtered unless the caller brings one) and a watchdog, so
     every deployment's timeline and alert record lands in [result]. *)
  let metrics = match metrics with Some m -> m | None -> Metrics.create () in
  (* When the caller supplies BOTH the sampler and the watchdog they own
     the wiring (subscriber order matters for dashboards); otherwise we
     attach here. *)
  let caller_wired = timeseries <> None && watchdog <> None in
  let timeseries =
    match timeseries with
    | Some ts -> ts
    | None -> Bmcast_obs.Timeseries.create ~filter:bench_ts_filter metrics
  in
  let watchdog =
    match watchdog with
    | Some w -> w
    | None -> Bmcast_obs.Watchdog.create default_rules
  in
  if not caller_wired then Bmcast_obs.Watchdog.attach watchdog timeseries;
  Bmcast_obs.Watchdog.set_trace watchdog trace;
  let sim = Sim.create ~seed ~trace ~metrics ~timeseries ?profile () in
  let fabric =
    match uplink_mbps with
    | None -> Fabric.create sim ()
    | Some mb -> Fabric.create sim ~port_rate_bytes_per_s:(mb *. 1e6 /. 8.) ()
  in
  let image_sectors = image_mb * 2048 in
  let disk_profile = Disk.hdd_constellation2 in
  let server_disks =
    List.init replicas (fun _ ->
        let disk = Disk.create sim disk_profile in
        Disk.fill_with_image disk;
        disk)
  in
  let vblades =
    List.mapi
      (fun i disk ->
        Vblade.create sim ~fabric
          ~name:(Printf.sprintf "vblade%d" i)
          ~disk ~ram_cache:true ())
      server_disks
  in
  let params = Params.default ~image_sectors in
  let h_ttfb = Metrics.histogram (Sim.metrics sim) "fleet_time_to_first_boot_s" in
  let h_ttdv = Metrics.histogram (Sim.metrics sim) "fleet_time_to_devirt_s" in
  let scheduler =
    Scheduler.create sim ~servers:replicas ~limit_per_server ~policy:sched ()
  in
  let rsets = ref [] in
  (* Crashes/restarts are relative to fleet start (t=0 of the fresh
     simulation). *)
  let at span f =
    Sim.schedule sim (Time.add (Sim.now sim) span) f
  in
  List.iter
    (fun (span, i) ->
      at span (fun () ->
          Vblade.crash (List.nth vblades i);
          (* Ground truth for detection latency: the watchdog's next
             alert resolves this into a measured fault→alert span. *)
          Bmcast_obs.Watchdog.expect watchdog
            ~label:(Printf.sprintf "crash vblade%d" i)
            ~now:(Sim.now sim)))
    crashes;
  List.iter
    (fun (span, i) -> at span (fun () -> Vblade.restart (List.nth vblades i)))
    restarts;
  (* Distribution mode: a P2P swarm (gossip-fed peer serving, routed in
     front of the replica set) or a multicast carousel on the first
     replica, started once the first wave of VMMs has booted far enough
     to be subscribed. [`Unicast] is the PR-8 baseline, untouched. *)
  let swarm =
    match distribution with
    | `P2p ->
      Some
        (Peer.create sim ~fabric ~image_sectors
           ~chunk_sectors:params.Params.chunk_sectors)
    | `Unicast | `Mcast -> None
  in
  let mcast_group =
    match distribution with
    | `Mcast -> Some (Fabric.mcast_group fabric)
    | `Unicast | `P2p -> None
  in
  (match mcast_group with
  | Some group ->
    at
      (Time.add params.Params.vmm_boot_time (Time.ms 500))
      (fun () ->
        Vblade.multicast (List.hd vblades) ~group ~lba:0 ~count:image_sectors
          ~passes:mcast_passes ~gap:(Time.ms 200) ())
  | None -> ());
  let agents : (int, Peer.agent) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (span, i) ->
      at span (fun () ->
          match Hashtbl.find_opt agents i with
          | Some a -> Peer.crash a
          | None -> ()))
    peer_crashes;
  (match chaos with Some f -> f sim fabric vblades | None -> ());
  let routers = ref [] in
  let nodes_ref = ref [] in
  let mcast_fill_bytes = ref 0 in
  let mcast_dups = ref 0 in
  Sim.spawn_at sim ~name:"fleet" (Sim.now sim) (fun () ->
      let start = Sim.clock () in
      let nodes =
        List.init machines (fun i ->
            Machine.create sim
              ~name:(Printf.sprintf "node%d" i)
              ~disk_profile ~disk_kind:Machine.Ahci_disk ~fabric ())
      in
      nodes_ref := nodes;
      let jobs =
        List.mapi
          (fun idx m ->
            ( m.Machine.name,
              fun (_server : int) ->
                let rset = Replica_set.create sim ~policy vblades in
                rsets := rset :: !rsets;
                (* In P2P mode the machine is both a peer (serving chunks
                   its disk fully holds — the guard closes over the fill
                   bitmap, late-bound after boot, and the disk's extent
                   accounting) and a router client preferring advertised
                   peers over replicas. *)
                let bm = ref None in
                let route, observe =
                  match swarm with
                  | None ->
                    (Replica_set.route rset, Replica_set.observe rset)
                  | Some sw ->
                    let disk = m.Machine.disk in
                    let cs = params.Params.chunk_sectors in
                    let has_chunk c =
                      match !bm with
                      | None -> false
                      | Some b ->
                        let lba = c * cs in
                        let count = min cs (image_sectors - lba) in
                        count > 0
                        && Bitmap.range_filled b ~lba ~count
                        && Disk.mapped_sectors_in disk ~lba ~count = count
                    in
                    let agent =
                      Peer.join sw ~name:m.Machine.name ~has_chunk
                        ~peek:(fun ~lba ~count buf ->
                          Disk.peek_into disk ~lba ~count buf)
                        ()
                    in
                    Hashtbl.replace agents idx agent;
                    let router = Peer.router sw ~self:agent rset in
                    routers := router :: !routers;
                    (Peer.route router, Peer.observe router)
                in
                let vmm =
                  Vmm.boot m ~params
                    ~server_port:(Replica_set.port_of rset 0)
                    ~route ~on_aoe_response:observe ?mcast_group ()
                in
                bm := Some (Vmm.bitmap vmm);
                let blk = Block_io.attach m in
                let rt =
                  { Runtime.label = "bmcast";
                    machine = m;
                    block_read =
                      (fun ~lba ~count dst ->
                        Block_io.read_into blk ~lba ~count dst);
                    block_write =
                      (fun ~lba ~count data ->
                        Block_io.write blk ~lba ~count data);
                    cpu = Vmm.cpu_model vmm;
                    phase = (fun () -> Vmm.phase vmm) }
                in
                Os.boot rt ?profile:boot_profile ();
                Stats.Histogram.add h_ttfb
                  (Time.to_float_s (Time.diff (Sim.clock ()) start));
                Vmm.wait_devirtualized vmm;
                (let tot = Vmm.totals vmm in
                 mcast_fill_bytes := !mcast_fill_bytes + tot.Vmm.mcast_bytes;
                 mcast_dups := !mcast_dups + tot.Vmm.mcast_dups);
                Stats.Histogram.add h_ttdv
                  (Time.to_float_s (Time.diff (Sim.clock ()) start)) ))
          nodes
      in
      ignore (Scheduler.run scheduler jobs : Scheduler.job_stat list);
      Sim.request_stop sim);
  Sim.run sim;
  (* Every machine must have reached de-virtualization; a deployment
     stuck behind a dead replica would leave its sample missing (and the
     scheduler's latch unset, ending the run early). *)
  if Stats.Histogram.count h_ttdv <> machines then
    failwith
      (Printf.sprintf
         "Scaleout.deploy_fleet: %d of %d machines de-virtualized"
         (Stats.Histogram.count h_ttdv) machines);
  (* Cross-mode equivalence evidence: after full deployment every client
     disk must hold the golden image byte-for-byte regardless of which
     path (replica unicast, peer serve, multicast carousel) delivered
     each sector. The digest is over the canonical per-sector content of
     every client disk in fleet order, so two runs — or two distribution
     modes — produce equal hex strings iff their images are identical. *)
  let images_ok, image_digest =
    if not digest_images then (None, None)
    else begin
      let golden = List.hd server_disks in
      let buf = Buffer.create (image_sectors * 2) in
      let ok = ref true in
      List.iter
        (fun m ->
          let disk = m.Machine.disk in
          for lba = 0 to image_sectors - 1 do
            let c = Disk.sector disk lba in
            if not (Content.equal c (Disk.sector golden lba)) then ok := false;
            (match Content.view c with
            | Content.Zero -> Buffer.add_char buf 'Z'
            | Content.Image i -> Buffer.add_string buf (Printf.sprintf "I%d;" i)
            | Content.Data d -> Buffer.add_string buf (Printf.sprintf "D%d;" d)
            | Content.Blob s -> Buffer.add_string buf (Printf.sprintf "B%s;" s))
          done)
        !nodes_ref;
      (Some !ok, Some (Digest.to_hex (Digest.string (Buffer.contents buf))))
    end
  in
  { machines;
    replicas;
    image_mb;
    policy = Replica_set.policy_to_string policy;
    sched = Scheduler.wave_policy_to_string sched;
    distribution = distribution_to_string distribution;
    ttfb = summarize h_ttfb;
    ttdv = summarize h_ttdv;
    failovers = List.fold_left (fun a r -> a + Replica_set.failovers r) 0 !rsets;
    peak_queue = Scheduler.peak_queue scheduler;
    peak_in_service = Scheduler.peak_in_service scheduler;
    admitted_per_server = Scheduler.admitted_per_server scheduler;
    server_bytes =
      List.fold_left (fun a v -> a + Vblade.bytes_served v) 0 vblades;
    p2p_routed = List.fold_left (fun a r -> a + Peer.p2p_routed r) 0 !routers;
    p2p_failovers =
      List.fold_left (fun a r -> a + Peer.p2p_failovers r) 0 !routers;
    p2p_served_bytes =
      Hashtbl.fold (fun _ a acc -> acc + Peer.served_bytes a) agents 0;
    gossip_announces =
      (match swarm with Some sw -> Peer.announces_received sw | None -> 0);
    mcast_tx_bytes =
      List.fold_left (fun a v -> a + Vblade.mcast_bytes_sent v) 0 vblades;
    mcast_fill_bytes = !mcast_fill_bytes;
    mcast_dups = !mcast_dups;
    sim_events = Sim.events_executed sim;
    analytics = Analytics.of_trace ~slo_s trace;
    alert_count = Bmcast_obs.Watchdog.alert_count watchdog;
    timeline = Bmcast_obs.Timeseries.timeline_json ~max_points:60 timeseries;
    watch = Bmcast_obs.Watchdog.alerts_json watchdog;
    images_ok;
    image_digest }

let summary_json s =
  Printf.sprintf
    {|{"p50":%.6f,"p90":%.6f,"p99":%.6f,"mean":%.6f,"max":%.6f}|} s.p50 s.p90
    s.p99 s.mean s.max

let result_json r =
  Printf.sprintf
    {|    {"machines":%d,"replicas":%d,"image_mb":%d,"policy":%S,"sched":%S,
     "distribution":%S,
     "time_to_first_boot_s":%s,
     "time_to_devirt_s":%s,
     "failovers":%d,"peak_queue":%d,"peak_in_service":%d,
     "admitted_per_server":[%s],"server_bytes":%d,
     "p2p_routed":%d,"p2p_failovers":%d,"p2p_served_bytes":%d,
     "gossip_announces":%d,
     "mcast_tx_bytes":%d,"mcast_fill_bytes":%d,"mcast_dups":%d,
     "sim_events":%d,
     "images_ok":%s,"image_digest":%s,
     "boot":%s,
     "timeline":%s,
     "watch":%s}|}
    r.machines r.replicas r.image_mb r.policy r.sched r.distribution
    (summary_json r.ttfb) (summary_json r.ttdv) r.failovers r.peak_queue
    r.peak_in_service
    (Array.to_list r.admitted_per_server
    |> List.map string_of_int
    |> String.concat ",")
    r.server_bytes r.p2p_routed r.p2p_failovers r.p2p_served_bytes
    r.gossip_announces r.mcast_tx_bytes r.mcast_fill_bytes r.mcast_dups
    r.sim_events
    (match r.images_ok with
    | None -> "null"
    | Some b -> if b then "true" else "false")
    (match r.image_digest with
    | None -> "null"
    | Some d -> Printf.sprintf "%S" d)
    (Analytics.to_json r.analytics)
    r.timeline r.watch

let write_metrics path results =
  let oc = open_out path in
  Printf.fprintf oc
    {|{"experiment":"fleet-scaleout",
  "configs":[
%s
  ]}
|}
    (String.concat ",\n" (List.map result_json results));
  close_out oc

let run () =
  let image_mb = 256 in
  Report.section
    (Printf.sprintf
       "Fleet scale-out: machines x storage replicas (%d MB images)" image_mb);
  let results =
    List.concat_map
      (fun machines ->
        List.map
          (fun replicas ->
            deploy_fleet ~image_mb ~machines ~replicas ())
          [ 1; 2; 4 ])
      [ 1; 4; 16 ]
  in
  Report.series_header
    [ "ttfb p50(s)"; "ttfb max(s)"; "ttdv p50(s)"; "ttdv max(s)" ];
  List.iter
    (fun r ->
      Report.series_row
        (Printf.sprintf "%dx%d (%d srv, q<=%d)" r.machines r.replicas
           r.replicas r.peak_queue)
        [ r.ttfb.p50; r.ttfb.max; r.ttdv.p50; r.ttdv.max ])
    results;
  (* The claim: adding storage replicas restores per-machine deployment
     speed at fleet scale — the replicated tier removes the single-uplink
     bottleneck exactly as adding vblade workers removed the CPU one. *)
  let find m r =
    List.find_opt (fun x -> x.machines = m && x.replicas = r) results
  in
  (match (find 16 1, find 16 4) with
  | Some one, Some four ->
    Report.row ~label:"16-machine ttdv p50, 1 -> 4 replicas" ~units:"x speedup"
      (one.ttdv.p50 /. four.ttdv.p50)
  | _ -> ());
  results

(* The headline question for peer/multicast distribution: at what fleet
   size does each strategy win, when the storage tier's uplinks are the
   bottleneck? Replica fan-out spends uplink bytes linearly in N; P2P
   shifts serving onto already-deployed clients so the tier's share
   shrinks as the swarm warms; the multicast carousel spends a constant
   number of uplink bytes regardless of N. Constrained uplinks (100 Mb/s)
   make the contest visible at simulable scale. *)
let run_crossover ?metrics_out () =
  let client_counts = [ 25; 100; 250; 1000 ] in
  let image_mb = 64 and uplink_mbps = 100. in
  Report.section
    (Printf.sprintf
       "Distribution crossover: replica fan-out vs P2P vs multicast (%d MB \
        images, %.0f Mb/s uplinks, minimal guests)"
       image_mb uplink_mbps);
  (* Every strategy gets the same admitted concurrency — 16 boots in
     flight — because the protective limit is load-bearing for all of
     them: the AoE initiator has no congestion control, so admitting
     the burst at once melts any tier under retransmission storms
     (tried: ~33x overdelivery). The contest is about where a wave's
     bytes come from. Fan-out drags every byte through 4 server
     uplinks, so its wave time stretches as uplinks get scarce; the
     alternatives run a *half-size* tier (2 replicas) and absorb the
     same waves with peer serving (each admitted client pulls from a
     distinct already-deployed peer's uplink) or the carousel (one
     port's bandwidth fills the whole wave at once). The carousel gets
     one pass per client so it keeps cycling for the whole deployment;
     surplus passes are free because [Sim.request_stop] ends the run
     when the last machine de-virtualizes. *)
  let strategies =
    [ ("replica-fanout", `Unicast, 4, 4);
      ("p2p", `P2p, 2, 8);
      ("mcast", `Mcast, 2, 8) ]
  in
  let results =
    List.concat_map
      (fun machines ->
        List.map
          (fun (_, distribution, replicas, limit_per_server) ->
            deploy_fleet ~image_mb ~boot_profile:Os.cloud_minimal ~uplink_mbps
              ~distribution ~machines ~replicas ~limit_per_server
              ~mcast_passes:(max 16 machines) ())
          strategies)
      client_counts
  in
  Report.series_header
    [ "ttdv p50(s)"; "ttdv max(s)"; "server GB"; "offload GB" ];
  List.iter
    (fun r ->
      let offload = r.p2p_served_bytes + r.mcast_fill_bytes in
      Report.series_row
        (Printf.sprintf "%s %dx%d" r.distribution r.machines r.replicas)
        [ r.ttdv.p50;
          r.ttdv.max;
          float_of_int r.server_bytes /. 1e9;
          float_of_int offload /. 1e9 ])
    results;
  (* The crossover: the client count past which each alternative beats
     replica fan-out on p50 time-to-devirtualization. *)
  let find d m =
    List.find_opt (fun x -> x.distribution = d && x.machines = m) results
  in
  List.iter
    (fun alt ->
      let wins =
        List.filter
          (fun m ->
            match (find "unicast" m, find alt m) with
            | Some u, Some a -> a.ttdv.p50 < u.ttdv.p50
            | _ -> false)
          client_counts
      in
      match wins with
      | m :: _ ->
        Report.note "%s beats replica fan-out from %d clients up" alt m
      | [] -> Report.note "%s never beats replica fan-out in this sweep" alt)
    [ "p2p"; "mcast" ];
  (match metrics_out with
  | Some path ->
    write_metrics path results;
    Report.note "wrote %s" path
  | None -> ());
  results

(* The elasticity regime the paper argues for (and López García et al.
   evaluate at hundreds of clients): ~1,000 concurrent provisioning
   requests against a modest replicated tier. Uses a small image and the
   [Os.cloud_minimal] guest so the run measures deployment physics, and
   relies on the engine's lazy idle guests — each machine stops costing
   scheduler events the moment it de-virtualizes. *)
let run_scale () =
  let client_counts = [ 250; 1000 ] and replicas = 16 and image_mb = 8 in
  Report.section
    (Printf.sprintf
       "Fleet scale-out, cloud-burst regime: clients x %d replicas (%d MB \
        images, minimal guests)"
       replicas image_mb);
  let results =
    List.map
      (fun machines ->
        deploy_fleet ~image_mb ~boot_profile:Os.cloud_minimal ~machines
          ~replicas ())
      client_counts
  in
  Report.series_header
    [ "ttfb p50(s)"; "ttdv p50(s)"; "ttdv max(s)"; "sim Mevents" ];
  List.iter
    (fun r ->
      Report.series_row
        (Printf.sprintf "%dx%d (q<=%d)" r.machines r.replicas r.peak_queue)
        [ r.ttfb.p50;
          r.ttdv.p50;
          r.ttdv.max;
          float_of_int r.sim_events /. 1e6 ])
    results;
  results
