(* Tests for the fleet layer: replica-set routing and failover, the
   deployment scheduler, and the end-to-end fleet experiment —
   including the determinism contract (same seed => byte-identical
   trace) with a replica crash injected mid-copy. *)

module Sim = Bmcast_engine.Sim
module Time = Bmcast_engine.Time
module Disk = Bmcast_storage.Disk
module Fabric = Bmcast_net.Fabric
module Vblade = Bmcast_proto.Vblade
module Aoe = Bmcast_proto.Aoe
module Trace = Bmcast_obs.Trace
module Analytics = Bmcast_obs.Analytics
module Metrics = Bmcast_obs.Metrics
module Timeseries = Bmcast_obs.Timeseries
module Watchdog = Bmcast_obs.Watchdog
module Replica_set = Bmcast_fleet.Replica_set
module Scheduler = Bmcast_fleet.Scheduler
module Scaleout = Bmcast_experiments.Scaleout

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- rig: a sim with [n] image-filled vblade targets --- *)

let small_profile =
  { Disk.hdd_constellation2 with Disk.capacity_sectors = 1 lsl 16 }

let rig ?(seed = 42) n =
  let sim = Sim.create ~seed () in
  let fabric = Fabric.create sim () in
  let vblades =
    List.init n (fun i ->
        let d = Disk.create sim small_profile in
        Disk.fill_with_image d;
        Vblade.create sim ~fabric ~name:(Printf.sprintf "v%d" i) ~disk:d ())
  in
  (sim, vblades)

let hdr ?(cmd = Aoe.Ata_read) ?(count = 8) ~tag ~lba () =
  { Aoe.major = 1;
    minor = 0;
    command = cmd;
    tag;
    frag = 0;
    is_response = false;
    error = false;
    lba;
    count }

let response h = { h with Aoe.is_response = true }

(* Map a routed port back to the replica index. *)
let idx_of_port rset port =
  let rec go i =
    if i >= Replica_set.size rset then Alcotest.fail "unknown port"
    else if Replica_set.port_of rset i = port then i
    else go (i + 1)
  in
  go 0

(* --- replica set: policies --- *)

let test_policy_strings () =
  let roundtrip s =
    match Replica_set.policy_of_string s with
    | Some p -> Replica_set.policy_to_string p
    | None -> Alcotest.failf "did not parse %S" s
  in
  Alcotest.(check string) "shard" "shard:131072" (roundtrip "shard");
  Alcotest.(check string) "shard:n" "shard:4096" (roundtrip "shard:4096");
  Alcotest.(check string) "least" "least-outstanding"
    (roundtrip "least-outstanding");
  Alcotest.(check string) "rtt" "weighted-rtt" (roundtrip "weighted-rtt");
  check_bool "junk rejected" true
    (Replica_set.policy_of_string "round-robin" = None);
  check_bool "bad shard rejected" true
    (Replica_set.policy_of_string "shard:0" = None)

let test_wave_policy_strings () =
  let roundtrip s =
    match Scheduler.wave_policy_of_string s with
    | Some p -> Scheduler.wave_policy_to_string p
    | None -> Alcotest.failf "did not parse %S" s
  in
  Alcotest.(check string) "all" "all" (roundtrip "all");
  Alcotest.(check string) "waves" "waves:4" (roundtrip "waves:4");
  Alcotest.(check string) "stagger" "stagger:250ms" (roundtrip "stagger:250");
  check_bool "junk rejected" true
    (Scheduler.wave_policy_of_string "bursty" = None);
  check_bool "waves:0 rejected" true
    (Scheduler.wave_policy_of_string "waves:0" = None)

let test_shard_routing () =
  let sim, vblades = rig 3 in
  let rset =
    Replica_set.create sim ~policy:(Replica_set.Static_shard 1000) vblades
  in
  (* lba / 1000 mod 3 picks the home replica. *)
  List.iteri
    (fun tag (lba, expect) ->
      let port = Replica_set.route rset (hdr ~tag ~lba ()) in
      check_int (Printf.sprintf "lba %d" lba) expect (idx_of_port rset port))
    [ (0, 0); (999, 0); (1000, 1); (2500, 2); (3000, 0); (4001, 1) ]

let test_shard_skips_crashed_owner () =
  let sim, vblades = rig 3 in
  let rset =
    Replica_set.create sim ~policy:(Replica_set.Static_shard 1000) vblades
  in
  Vblade.crash (List.nth vblades 1);
  let port = Replica_set.route rset (hdr ~tag:7 ~lba:1000 ()) in
  (* Home owner (1) is down: the next replica (2) takes the stripe. *)
  check_int "next live owner" 2 (idx_of_port rset port)

let test_least_outstanding_spreads () =
  let sim, vblades = rig 3 in
  let rset = Replica_set.create sim vblades in
  let where tag = idx_of_port rset (Replica_set.route rset (hdr ~tag ~lba:0 ())) in
  check_int "first -> 0" 0 (where 1);
  check_int "second -> 1" 1 (where 2);
  check_int "third -> 2" 2 (where 3);
  check_int "wraps to least" 0 (where 4);
  check_int "outstanding 0" 2 (Replica_set.outstanding rset 0);
  check_int "outstanding 1" 1 (Replica_set.outstanding rset 1);
  (* A response drains the count and frees the slot. *)
  Replica_set.observe rset (response (hdr ~tag:1 ~lba:0 ()));
  check_int "drained" 1 (Replica_set.outstanding rset 0);
  check_int "routed counts" 2 (Replica_set.requests_routed rset 0)

let test_weighted_rtt_valid_and_seeded () =
  (* Whatever the draw, the chosen replica is valid; the same seed gives
     the same sequence of choices. *)
  let choices seed =
    let sim, vblades = rig ~seed 3 in
    let rset =
      Replica_set.create sim ~policy:Replica_set.Weighted_rtt vblades
    in
    List.init 20 (fun tag ->
        idx_of_port rset (Replica_set.route rset (hdr ~tag ~lba:0 ())))
  in
  let a = choices 7 and b = choices 7 in
  check_bool "deterministic for a seed" true (a = b);
  check_bool "indices valid" true (List.for_all (fun i -> i >= 0 && i < 3) a)

let test_retransmit_fails_over () =
  let sim, vblades = rig 3 in
  let rset = Replica_set.create sim vblades in
  let h = hdr ~tag:42 ~lba:0 () in
  let first = idx_of_port rset (Replica_set.route rset h) in
  check_int "no failover yet" 0 (Replica_set.failovers rset);
  (* Same tag again = retransmission: must move off the silent replica
     (now on probation) and count a failover. *)
  let second = idx_of_port rset (Replica_set.route rset h) in
  check_bool "moved" true (first <> second);
  check_int "failover counted" 1 (Replica_set.failovers rset);
  check_int "old drained" 0 (Replica_set.outstanding rset first);
  check_int "new charged" 1 (Replica_set.outstanding rset second)

let test_crashed_replica_excluded () =
  let sim, vblades = rig 3 in
  let rset = Replica_set.create sim vblades in
  Vblade.crash (List.nth vblades 0);
  for tag = 1 to 12 do
    let i = idx_of_port rset (Replica_set.route rset (hdr ~tag ~lba:0 ())) in
    check_bool "avoids crashed" true (i <> 0)
  done

let test_all_down_still_routes () =
  (* With every replica dead the set must still return some port (the
     retransmission loop keeps the command alive until a restart). *)
  let sim, vblades = rig 2 in
  let rset = Replica_set.create sim vblades in
  List.iter Vblade.crash vblades;
  let i = idx_of_port rset (Replica_set.route rset (hdr ~tag:1 ~lba:0 ())) in
  check_bool "valid index" true (i = 0 || i = 1)

let test_rtt_estimate_updates () =
  let sim, vblades = rig 2 in
  let rset = Replica_set.create sim vblades in
  let h = hdr ~tag:5 ~lba:0 ~count:4 () in
  ignore (Replica_set.route rset h : int);
  check_bool "unmeasured" true (Replica_set.rtt_estimate_ms rset 0 = 0.0);
  (* Responses arrive instantly at t=0 here, so the sample is 0 but the
     flight completes; use a second sim-free check: count=4 read answered
     by two 2-sector fragments completes only on the second. *)
  Replica_set.observe rset (response { h with Aoe.count = 2 });
  check_int "still in flight" 1 (Replica_set.outstanding rset 0);
  Replica_set.observe rset (response { h with Aoe.count = 2 });
  check_int "completed" 0 (Replica_set.outstanding rset 0);
  ignore sim

(* --- scheduler --- *)

(* Run [f] as a process inside a fresh sim and return its result. *)
let in_sim ?(seed = 42) f =
  let sim = Sim.create ~seed () in
  let result = ref None in
  Sim.spawn_at sim ~name:"test" Time.zero (fun () -> result := Some (f sim));
  Sim.run sim;
  match !result with
  | Some r -> r
  | None -> Alcotest.fail "scenario did not complete"

let sleepy_jobs n span =
  List.init n (fun i ->
      (Printf.sprintf "job%d" i, fun (_ : int) -> Sim.sleep span))

let test_scheduler_admission_cap () =
  let stats, peak_q, peak_s, admitted =
    in_sim (fun sim ->
        let s =
          Scheduler.create sim ~servers:2 ~limit_per_server:2 ()
        in
        let stats = Scheduler.run s (sleepy_jobs 8 (Time.s 1)) in
        ( stats,
          Scheduler.peak_queue s,
          Scheduler.peak_in_service s,
          Scheduler.admitted_per_server s ))
  in
  check_int "all ran" 8 (List.length stats);
  check_bool "capacity respected" true (peak_s <= 4);
  check_bool "queue built up" true (peak_q >= 4);
  check_int "every job leased" 8 (Array.fold_left ( + ) 0 admitted);
  (* Least-loaded leasing balances a uniform fleet. *)
  check_int "balanced" 4 admitted.(0);
  (* 8 jobs of 1 s through 4 slots: the second batch queues ~1 s. *)
  let delayed =
    List.filter (fun j -> Scheduler.queue_delay_s j > 0.5) stats
  in
  check_int "second batch waited" 4 (List.length delayed)

let test_scheduler_waves () =
  let stats =
    in_sim (fun sim ->
        let s =
          Scheduler.create sim ~servers:4 ~limit_per_server:4
            ~policy:(Scheduler.Waves 2) ()
        in
        Scheduler.run s (sleepy_jobs 6 (Time.s 1)))
  in
  (* Wave w starts only after wave w-1 finished: starts come in strictly
     separated pairs. *)
  let starts = List.map (fun j -> Time.to_float_s j.Scheduler.started) stats in
  let sorted = List.sort compare starts in
  (match sorted with
  | [ a; b; c; d; e; f ] ->
    check_bool "pairs together" true (a = b && c = d && e = f);
    check_bool "wave 2 after wave 1 done" true (c -. a >= 1.0);
    check_bool "wave 3 after wave 2 done" true (e -. c >= 1.0)
  | _ -> Alcotest.fail "expected 6 stats");
  check_bool "no overlap beyond wave" true
    (in_sim (fun sim ->
         let s =
           Scheduler.create sim ~servers:4 ~limit_per_server:4
             ~policy:(Scheduler.Waves 2) ()
         in
         ignore (Scheduler.run s (sleepy_jobs 6 (Time.s 1)));
         Scheduler.peak_in_service s <= 2))

let test_scheduler_stagger () =
  let stats =
    in_sim (fun sim ->
        let s =
          Scheduler.create sim ~servers:4 ~limit_per_server:4
            ~policy:(Scheduler.Stagger (Time.ms 200)) ()
        in
        Scheduler.run s (sleepy_jobs 4 (Time.s 1)))
  in
  List.iteri
    (fun i j ->
      check_bool
        (Printf.sprintf "job %d released at %dms" i (i * 200))
        true
        (Time.to_float_s j.Scheduler.started
        >= (float_of_int i *. 0.2) -. 1e-9))
    stats

let test_scheduler_single_use () =
  check_bool "second run raises" true
    (in_sim (fun sim ->
         let s = Scheduler.create sim ~servers:1 () in
         ignore (Scheduler.run s (sleepy_jobs 1 (Time.ms 1)));
         try
           ignore (Scheduler.run s (sleepy_jobs 1 (Time.ms 1)));
           false
         with Invalid_argument _ -> true))

(* --- end-to-end: fleet deployment, failover, determinism --- *)

(* An out-of-range fault index is rejected before the run: a crash or
   restart used to fail inside a scheduled callback, and a peer crash
   was silently ignored. *)
let test_fleet_rejects_bad_fault_indices () =
  let rejects name f =
    check_bool name true
      (try
         ignore (f () : Scaleout.result);
         false
       with Invalid_argument _ -> true)
  in
  let deploy = Scaleout.deploy_fleet ~image_mb:4 ~machines:4 ~replicas:2 in
  rejects "crash index" (fun () -> deploy ~crashes:[ (Time.s 1, 2) ] ());
  rejects "restart index" (fun () -> deploy ~restarts:[ (Time.s 1, 5) ] ());
  rejects "peer crash index" (fun () ->
      deploy ~distribution:`P2p ~peer_crashes:[ (Time.s 1, 4) ] ());
  rejects "negative index" (fun () -> deploy ~crashes:[ (Time.s 1, -1) ] ())

(* 16 machines x 3 replicas with replica 1 crashed mid-copy and never
   restarted: every deployment must still de-virtualize (deploy_fleet
   raises otherwise), surviving replicas absorb the load via failover. *)
let fleet_run ~trace () =
  Scaleout.deploy_fleet ~seed:7 ~image_mb:32 ~machines:16 ~replicas:3
    ~crashes:[ (Time.s 10, 1) ]
    ~trace ()

let test_fleet_failover_converges () =
  let r = fleet_run ~trace:Trace.null () in
  check_bool "failovers happened" true (r.Scaleout.failovers > 0);
  check_bool "devirt after boot" true
    (r.Scaleout.ttdv.Scaleout.p50 > r.Scaleout.ttfb.Scaleout.p50);
  check_int "three servers leased" 3
    (Array.length r.Scaleout.admitted_per_server)

let test_fleet_deterministic_trace () =
  let export () =
    let tr = Trace.create ~capacity:(1 lsl 20) () in
    let r = fleet_run ~trace:tr () in
    (Trace.to_chrome tr, Trace.to_jsonl tr, r)
  in
  let chrome_a, jsonl_a, ra = export () in
  let chrome_b, jsonl_b, rb = export () in
  check_bool "traces non-trivial" true (String.length chrome_a > 1000);
  check_bool "chrome export byte-identical" true (chrome_a = chrome_b);
  check_bool "jsonl export byte-identical" true (jsonl_a = jsonl_b);
  check_bool "summaries identical" true
    (ra.Scaleout.ttdv = rb.Scaleout.ttdv
    && ra.Scaleout.ttfb = rb.Scaleout.ttfb
    && ra.Scaleout.failovers = rb.Scaleout.failovers)

(* The engine-rework contract at scale: a 1,000-client cloud-burst run
   (minimal guests, small image, sampled tracer) is bit-for-bit
   reproducible — same seed gives a byte-identical JSONL trace, the
   same event count, and the same latency summaries. This is the test
   that pins the timer wheel's FIFO tie-breaking and the lazy-guest
   accounting across the whole stack. *)
let test_fleet_scale_deterministic_trace () =
  let export () =
    let tr = Trace.create ~capacity:(1 lsl 20) ~sample_every:64 () in
    let r =
      Scaleout.deploy_fleet ~seed:11 ~image_mb:4
        ~boot_profile:Bmcast_guest.Os.cloud_minimal ~machines:1000
        ~replicas:16 ~trace:tr ()
    in
    (Trace.to_jsonl tr, r)
  in
  let jsonl_a, ra = export () in
  let jsonl_b, rb = export () in
  check_bool "sampled trace non-trivial" true (String.length jsonl_a > 1000);
  check_bool "jsonl export byte-identical" true (jsonl_a = jsonl_b);
  check_int "event counts identical" ra.Scaleout.sim_events
    rb.Scaleout.sim_events;
  check_bool "summaries identical" true
    (ra.Scaleout.ttdv = rb.Scaleout.ttdv
    && ra.Scaleout.ttfb = rb.Scaleout.ttfb
    && ra.Scaleout.failovers = rb.Scaleout.failovers)

(* The report determinism contract on a seeded 250-client cloud burst:
   the analytics section of the report (stage table, critical path,
   SLO) derives from virtual-time spans only, so two same-seed runs
   must render byte-identical JSON and text. *)
let test_fleet_report_deterministic () =
  let go () =
    let r =
      Scaleout.deploy_fleet ~seed:11 ~image_mb:4
        ~boot_profile:Bmcast_guest.Os.cloud_minimal ~machines:250 ~replicas:16
        ()
    in
    r.Scaleout.analytics
  in
  let a = go () and b = go () in
  check_int "all machines folded" 250 (Analytics.machine_count a);
  check_int "slo saw every boot" 250 (Analytics.slo a).Analytics.boots;
  check_bool "json byte-identical" true
    (String.equal (Analytics.to_json a) (Analytics.to_json b));
  check_bool "text byte-identical" true
    (String.equal (Analytics.to_text a) (Analytics.to_text b))

(* Stage-sum = boot-total on a real deployment: per machine, the five
   pipeline spans (queue, vmm_init, discover, copy, devirt) must tile
   the boot timeline with no gaps or overlaps, so their durations sum
   exactly (integer ns) to last-span-end minus first-span-start. *)
let test_fleet_stage_tiling () =
  let tr = Trace.create ~capacity:(1 lsl 16) ~categories:[ "boot" ] () in
  let r =
    Scaleout.deploy_fleet ~seed:5 ~image_mb:4
      ~boot_profile:Bmcast_guest.Os.cloud_minimal ~machines:32 ~replicas:4
      ~trace:tr ()
  in
  let per_machine = Hashtbl.create 32 in
  Trace.iter tr (fun (e : Trace.event) ->
      match (e.Trace.phase, List.assoc_opt "m" e.Trace.args) with
      | Trace.P_span, Some (Trace.Str m) ->
        let spans, first, last, sum =
          Option.value
            (Hashtbl.find_opt per_machine m)
            ~default:(0, max_int, min_int, 0)
        in
        Hashtbl.replace per_machine m
          ( spans + 1,
            min first e.Trace.ts,
            max last (e.Trace.ts + e.Trace.dur),
            sum + e.Trace.dur )
      | _ -> ());
  check_int "dropped no boot spans" 0 (Trace.dropped tr);
  check_int "every machine traced" 32 (Hashtbl.length per_machine);
  Hashtbl.iter
    (fun m (spans, first, last, sum) ->
      check_int (m ^ " has the full pipeline") 5 spans;
      check_int (m ^ " stages tile the boot") (last - first) sum)
    per_machine;
  (* and the analytics fold agrees with the raw spans *)
  check_int "analytics saw the fleet" 32
    (Analytics.machine_count r.Scaleout.analytics);
  List.iter
    (fun m ->
      let _, _, _, sum = Hashtbl.find per_machine m in
      match Analytics.boot_total_ms r.Scaleout.analytics m with
      | Some total_ms ->
        check_bool (m ^ " boot total matches trace") true
          (Float.abs (total_ms -. (float_of_int sum /. 1e6)) < 1e-6)
      | None -> Alcotest.failf "machine %s missing from analytics" m)
    (Analytics.machine_names r.Scaleout.analytics)

(* The telemetry determinism contract on a seeded 250-client cloud
   burst: the sampler sweeps on virtual time and reads only
   deterministic registry state, so two same-seed runs with the same
   sampling config must export byte-identical CSV and OpenMetrics. *)
let test_fleet_timeseries_deterministic () =
  let go () =
    let metrics = Metrics.create () in
    let ts = Timeseries.create ~interval_ns:(Time.ms 500) metrics in
    let (_ : Scaleout.result) =
      Scaleout.deploy_fleet ~seed:11 ~image_mb:4
        ~boot_profile:Bmcast_guest.Os.cloud_minimal ~machines:250 ~replicas:16
        ~metrics ~timeseries:ts ()
    in
    (Timeseries.to_csv ts, Timeseries.to_openmetrics ts, Timeseries.sweeps ts)
  in
  let csv_a, om_a, sweeps_a = go () in
  let csv_b, om_b, sweeps_b = go () in
  check_bool "sampler swept" true (sweeps_a > 10);
  check_int "sweep counts identical" sweeps_a sweeps_b;
  check_bool "csv non-trivial" true (String.length csv_a > 1000);
  check_bool "csv byte-identical" true (String.equal csv_a csv_b);
  check_bool "openmetrics byte-identical" true (String.equal om_a om_b)

(* Watchdog detection latency against an injected server crash: replica
   0 dies at 4.2 s into a run sampled every 500 ms, so the server-down
   rule must fire on the next sweep after the fault — latency strictly
   positive (the crash is not sweep-aligned) and bounded by the
   sampling interval. *)
let test_fleet_watchdog_detects_crash () =
  let interval = Time.ms 500 in
  let metrics = Metrics.create () in
  let ts = Timeseries.create ~interval_ns:interval metrics in
  let wd =
    Watchdog.create
      [ Watchdog.threshold ~name:"server-down" ~key:"vblade.up" Watchdog.Below
          0.5 ]
  in
  (* Supplying both sampler and watchdog means we own the wiring. *)
  Watchdog.attach wd ts;
  let r =
    Scaleout.deploy_fleet ~seed:7 ~image_mb:32 ~machines:16 ~replicas:3
      ~crashes:[ (Time.ms 4200, 0) ]
      ~metrics ~timeseries:ts ~watchdog:wd ()
  in
  check_bool "watchdog alerted" true (Watchdog.alert_count wd >= 1);
  check_int "result mirrors alert count" (Watchdog.alert_count wd)
    r.Scaleout.alert_count;
  check_int "crash expectation resolved" 0 (Watchdog.pending_expectations wd);
  match Watchdog.detections wd with
  | [] -> Alcotest.fail "no detection recorded"
  | d :: _ ->
    check_bool "detection labelled" true
      (String.length d.Watchdog.d_label > 0);
    let lat = Watchdog.detection_latency_ns d in
    check_bool "latency positive" true (lat > 0);
    check_bool "latency bounded by sampling interval" true (lat <= interval)

(* --- distribution modes: P2P swarm + multicast carousel --- *)

let small_fleet ?(seed = 7) ?(machines = 12) ?(replicas = 2) ?uplink_mbps
    ?peer_crashes ?chaos ?crashes ?restarts ?trace ~distribution () =
  Scaleout.deploy_fleet ~seed ~image_mb:4
    ~boot_profile:Bmcast_guest.Os.cloud_minimal ~digest_images:true
    ?uplink_mbps ?peer_crashes ?chaos ?crashes ?restarts ?trace ~distribution
    ~machines ~replicas ()

let test_p2p_offloads_and_converges () =
  let r = small_fleet ~distribution:`P2p ~uplink_mbps:50. () in
  check_bool "gossip announcements folded" true
    (r.Scaleout.gossip_announces > 0);
  check_bool "commands peer-routed" true (r.Scaleout.p2p_routed > 0);
  check_bool "bytes served peer-to-peer" true
    (r.Scaleout.p2p_served_bytes > 0);
  check_bool "every image converged" true (r.Scaleout.images_ok = Some true)

let test_mcast_fills_and_converges () =
  let r = small_fleet ~distribution:`Mcast () in
  check_bool "carousel transmitted" true (r.Scaleout.mcast_tx_bytes > 0);
  check_bool "clients filled from the carousel" true
    (r.Scaleout.mcast_fill_bytes > 0);
  check_bool "every image converged" true (r.Scaleout.images_ok = Some true)

(* The equivalence contract: whatever path delivered each sector —
   replica unicast, a peer's page cache, or the multicast carousel —
   every client disk must equal the golden image, so the three modes
   produce the same fleet-wide digest. *)
let test_cross_mode_image_equivalence () =
  let go d =
    let r = small_fleet ~distribution:d () in
    check_bool
      (Scaleout.distribution_to_string d ^ " converged")
      true
      (r.Scaleout.images_ok = Some true);
    r.Scaleout.image_digest
  in
  let u = go `Unicast and p = go `P2p and m = go `Mcast in
  check_bool "digest present" true (u <> None);
  check_bool "p2p image identical to unicast" true (p = u);
  check_bool "mcast image identical to unicast" true (m = u)

(* A peer dies mid-serve: its in-flight and queued requests vanish, the
   requesters' AoE timeouts fire, and the router fails the commands over
   to the replica set — the deployment still converges byte-for-byte. *)
let test_peer_crash_mid_serve_converges () =
  (* t=14 s lands mid second wave: wave-1 peers are actively serving
     wave-2 copy-on-read when every peer dies at once. *)
  let r =
    small_fleet ~distribution:`P2p ~uplink_mbps:25. ~machines:16
      ~peer_crashes:(List.init 16 (fun i -> (Time.s 14, i)))
      ()
  in
  check_bool "peer-routed commands" true (r.Scaleout.p2p_routed > 0);
  check_bool "failovers recorded" true (r.Scaleout.p2p_failovers > 0);
  check_bool "every image converged" true (r.Scaleout.images_ok = Some true)

(* --- QCheck: equivalence + determinism under random fault plans --- *)

(* A fault plan derived deterministically from a QCheck-drawn seed:
   uniform or Gilbert frame loss, a replica crash/restart pair, vblade
   link flaps, and peer crashes (harmless outside P2P mode). Every
   distribution mode faces the same plan. *)
type fault_plan = {
  fp_seed : int;
  loss : Fabric.loss_model;
  vblade_crash : (Time.span * int) list;
  vblade_restart : (Time.span * int) list;
  flaps : (Time.span * Time.span * int) list;  (* down at, up after, idx *)
  fp_peer_crashes : (Time.span * int) list;
}

let fault_plan_of_seed fp_seed =
  let st = Random.State.make [| fp_seed |] in
  let rnd lo hi = lo + Random.State.int st (hi - lo + 1) in
  let loss =
    if Random.State.bool st then
      Fabric.Uniform (float_of_int (rnd 0 30) /. 1000.)
    else
      Fabric.Gilbert
        { p_enter_bad = 0.01;
          p_exit_bad = 0.2;
          loss_good = 0.002;
          loss_bad = float_of_int (rnd 5 20) /. 100. }
  in
  let crash_at = Time.ms (rnd 500 4000) in
  let vblade_crash, vblade_restart =
    if Random.State.bool st then
      ([ (crash_at, 1) ], [ (Time.add crash_at (Time.ms (rnd 500 3000)), 1) ])
    else ([], [])
  in
  let flaps =
    List.init (rnd 0 2) (fun _ ->
        (Time.ms (rnd 200 5000), Time.ms (rnd 50 800), 0))
  in
  let fp_peer_crashes =
    List.init (rnd 0 3) (fun i -> (Time.ms (rnd 1000 6000), i))
  in
  { fp_seed; loss; vblade_crash; vblade_restart; flaps; fp_peer_crashes }

let chaos_of_plan plan sim fabric vblades =
  Fabric.set_loss_model fabric plan.loss;
  List.iter
    (fun (down_at, dur, i) ->
      let p = Vblade.port (List.nth vblades i) in
      let at span f = Sim.schedule sim (Time.add (Sim.now sim) span) f in
      at down_at (fun () -> Fabric.set_link_up p false);
      at (Time.add down_at dur) (fun () -> Fabric.set_link_up p true))
    plan.flaps

let faulted_fleet ?trace plan distribution =
  small_fleet ~seed:(plan.fp_seed land 0xFFFF) ~machines:8 ~distribution
    ~crashes:plan.vblade_crash ~restarts:plan.vblade_restart
    ~peer_crashes:plan.fp_peer_crashes
    ~chaos:(chaos_of_plan plan)
    ?trace ()

(* Under any fault plan, all three distribution modes converge to
   byte-identical per-client images (equal fleet digests), and each mode
   is individually deterministic: the same seed and plan reproduce the
   byte-identical JSONL trace and result summaries. *)
let prop_equivalence_under_faults =
  QCheck.Test.make ~name:"fault-plan equivalence across distribution modes"
    ~count:3
    QCheck.(map fault_plan_of_seed small_nat)
    (fun plan ->
      let u = faulted_fleet plan `Unicast in
      let p = faulted_fleet plan `P2p in
      let m = faulted_fleet plan `Mcast in
      List.for_all
        (fun r -> r.Scaleout.images_ok = Some true)
        [ u; p; m ]
      && p.Scaleout.image_digest = u.Scaleout.image_digest
      && m.Scaleout.image_digest = u.Scaleout.image_digest)

let prop_deterministic_under_faults =
  QCheck.Test.make
    ~name:"fault-plan runs are trace-deterministic per mode" ~count:2
    QCheck.(map fault_plan_of_seed small_nat)
    (fun plan ->
      List.for_all
        (fun d ->
          let export () =
            let tr = Trace.create ~capacity:(1 lsl 18) ~sample_every:16 () in
            let r = faulted_fleet ~trace:tr plan d in
            (Trace.to_jsonl tr, r)
          in
          let ja, ra = export () in
          let jb, rb = export () in
          String.equal ja jb
          && ra.Scaleout.image_digest = rb.Scaleout.image_digest
          && ra.Scaleout.ttdv = rb.Scaleout.ttdv
          && ra.Scaleout.p2p_routed = rb.Scaleout.p2p_routed
          && ra.Scaleout.mcast_fill_bytes = rb.Scaleout.mcast_fill_bytes)
        [ `Unicast; `P2p; `Mcast ])

(* The multicast analogue of the 1,000-client contract: a 250-client
   cloud burst with the carousel running is bit-for-bit reproducible —
   the carousel's unsolicited frames, the write-if-empty races and the
   dedup accounting all replay identically under the same seed. *)
let test_fleet_mcast_scale_deterministic_trace () =
  let export () =
    let tr = Trace.create ~capacity:(1 lsl 20) ~sample_every:64 () in
    let r =
      Scaleout.deploy_fleet ~seed:11 ~image_mb:4
        ~boot_profile:Bmcast_guest.Os.cloud_minimal ~distribution:`Mcast
        ~machines:250 ~replicas:4 ~trace:tr ()
    in
    (Trace.to_jsonl tr, r)
  in
  let jsonl_a, ra = export () in
  let jsonl_b, rb = export () in
  check_bool "sampled trace non-trivial" true (String.length jsonl_a > 1000);
  check_bool "jsonl export byte-identical" true (jsonl_a = jsonl_b);
  check_int "event counts identical" ra.Scaleout.sim_events
    rb.Scaleout.sim_events;
  check_bool "carousel filled bytes" true (ra.Scaleout.mcast_fill_bytes > 0);
  check_int "fill accounting identical" ra.Scaleout.mcast_fill_bytes
    rb.Scaleout.mcast_fill_bytes;
  check_int "dedup accounting identical" ra.Scaleout.mcast_dups
    rb.Scaleout.mcast_dups;
  check_bool "summaries identical" true
    (ra.Scaleout.ttdv = rb.Scaleout.ttdv && ra.Scaleout.ttfb = rb.Scaleout.ttfb)

let test_fleet_replicas_beat_single () =
  (* The tentpole claim at test scale: 8 machines on 1 replica vs 2. *)
  let one =
    Scaleout.deploy_fleet ~image_mb:32 ~machines:8 ~replicas:1 ()
  in
  let two =
    Scaleout.deploy_fleet ~image_mb:32 ~machines:8 ~replicas:2 ()
  in
  check_bool "2 replicas faster (median ttdv)" true
    (two.Scaleout.ttdv.Scaleout.p50 < one.Scaleout.ttdv.Scaleout.p50)

(* --- memory per client --- *)

(* The most live heap a fleet run reaches, in bytes: a daemon samples
   reachable words after a full major collection every 5 virtual
   seconds. *)
let peak_live_bytes ~image_mb ~replicas ~machines =
  let peak = ref 0 in
  let sample () =
    Gc.full_major ();
    peak := max !peak (Gc.stat ()).Gc.live_words
  in
  ignore
    (Scaleout.deploy_fleet ~image_mb
       ~boot_profile:Bmcast_guest.Os.cloud_minimal ~limit_per_server:4
       ~chaos:(fun sim _ _ ->
         ignore (Sim.every sim (Time.s 5) sample : unit -> unit))
       ~machines ~replicas ()
      : Scaleout.result);
  !peak * (Sys.word_size / 8)

(* What one more client costs, from the slope between [n] and [2n]
   clients, against a limit in KB: fixed costs (interning caches, pools)
   cancel out, and anything a client keeps after it is done grows with
   the fleet. *)
let check_slope ~image_mb ~replicas ~n ~limit_kb =
  let small = peak_live_bytes ~image_mb ~replicas ~machines:n in
  let large = peak_live_bytes ~image_mb ~replicas ~machines:(2 * n) in
  let per_client_kb = float_of_int (large - small) /. float_of_int n /. 1024. in
  let measured =
    Printf.sprintf "%d MB image: %.1f KB per client (%d clients: %.1f MB, %d: %.1f MB)"
      image_mb per_client_kb n
      (float_of_int small /. 1048576.)
      (2 * n)
      (float_of_int large /. 1048576.)
  in
  print_endline measured;
  check_bool
    (Printf.sprintf "%s < %.0f KB" measured limit_kb)
    true (per_client_kb < limit_kb)

(* Many commands per client: a structure allocated per disk command and
   never freed shows here. *)
let test_memory_per_client () =
  check_slope ~image_mb:1 ~replicas:16 ~n:100 ~limit_kb:40.

(* The scratch pool keeps a free list per array length it hands out:
   exact lengths up to 256 sectors, power-of-two classes above. A pool
   that kept one per requested length would grow with the fleet (454
   lengths after a 100-client 8 MB fleet, 694 after 250). *)
let check_scratch_lengths () =
  let lengths = ref 0 in
  for n = 1 to 16_384 do
    if Bmcast_storage.Content.Scratch.free_count n > 0 then incr lengths
  done;
  check_bool
    (Printf.sprintf "scratch pool holds %d lengths, at most 300" !lengths)
    true (!lengths <= 300)

(* A larger image, fewer replicas: anything kept per image sector after
   a client de-virtualizes (a VMM, fetched chunks) shows here. It reads
   26.2 KB; with a fresh array per 3 MB background-copy chunk and a
   scratch free list per requested length it read 78.9 KB. *)
let test_memory_per_client_8mb () =
  check_slope ~image_mb:8 ~replicas:2 ~n:50 ~limit_kb:40.;
  check_scratch_lengths ()

(* Host allocation per event of a whole fleet run, set-up included:
   100 clients of an 8 MB image on 16 replicas, about 3.2 M events. It
   reads 3.57 words in a fresh process and 3.48 after this section's
   live-heap runs have filled the scratch pools. The bound is 1.25 times
   the fresh reading, so a boxed value per event (5.57) fails it; one
   per frame hop, register access or sleep alone stays under it, and
   the net, storage and engine memory sections catch those. *)
let test_words_per_event () =
  let events = ref 0 in
  let words =
    Alloc.allocated_words (fun () ->
        let r =
          Scaleout.deploy_fleet ~seed:42 ~image_mb:8
            ~boot_profile:Bmcast_guest.Os.cloud_minimal ~machines:100
            ~replicas:16 ()
        in
        events := r.Scaleout.sim_events)
  in
  let per_event = words /. float_of_int !events in
  check_bool
    (Printf.sprintf "%.2f words per event over %d events, at most 4.5"
       per_event !events)
    true (per_event <= 4.5)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "fleet"
    [ ( "replica_set",
        [ tc "policy strings" `Quick test_policy_strings;
          tc "shard routing" `Quick test_shard_routing;
          tc "shard skips crashed owner" `Quick test_shard_skips_crashed_owner;
          tc "least outstanding spreads" `Quick test_least_outstanding_spreads;
          tc "weighted rtt seeded" `Quick test_weighted_rtt_valid_and_seeded;
          tc "retransmit fails over" `Quick test_retransmit_fails_over;
          tc "crashed replica excluded" `Quick test_crashed_replica_excluded;
          tc "all down still routes" `Quick test_all_down_still_routes;
          tc "fragmented read completion" `Quick test_rtt_estimate_updates ] );
      ( "scheduler",
        [ tc "wave policy strings" `Quick test_wave_policy_strings;
          tc "admission cap" `Quick test_scheduler_admission_cap;
          tc "waves" `Quick test_scheduler_waves;
          tc "stagger" `Quick test_scheduler_stagger;
          tc "single use" `Quick test_scheduler_single_use ] );
      ( "fleet",
        [ tc "rejects bad fault indices" `Quick
            test_fleet_rejects_bad_fault_indices;
          tc "failover converges" `Slow test_fleet_failover_converges;
          tc "deterministic trace" `Slow test_fleet_deterministic_trace;
          tc "1000-client deterministic trace" `Slow
            test_fleet_scale_deterministic_trace;
          tc "250-client deterministic report" `Slow
            test_fleet_report_deterministic;
          tc "boot stages tile exactly" `Slow test_fleet_stage_tiling;
          tc "250-client deterministic telemetry" `Slow
            test_fleet_timeseries_deterministic;
          tc "watchdog detects injected crash" `Slow
            test_fleet_watchdog_detects_crash;
          tc "replicas beat single" `Slow test_fleet_replicas_beat_single ] );
      ( "distribution",
        [ tc "p2p offloads and converges" `Slow test_p2p_offloads_and_converges;
          tc "mcast fills and converges" `Slow test_mcast_fills_and_converges;
          tc "cross-mode image equivalence" `Slow
            test_cross_mode_image_equivalence;
          tc "peer crash mid-serve converges" `Slow
            test_peer_crash_mid_serve_converges;
          tc "250-client mcast deterministic trace" `Slow
            test_fleet_mcast_scale_deterministic_trace;
          QCheck_alcotest.to_alcotest ~long:true prop_equivalence_under_faults;
          QCheck_alcotest.to_alcotest ~long:true
            prop_deterministic_under_faults ] );
      ( "memory",
        [ tc "live heap per client" `Slow test_memory_per_client;
          tc "live heap per client, 8 MB image" `Slow
            test_memory_per_client_8mb;
          tc "words per event" `Slow test_words_per_event ] ) ]
