(* The per-layer ledger of one traced run, measured from outside the
   layers: counts and latencies from the run's trace, allocation per
   call from its profiler, fabric totals from its metrics registry, and
   fleet/guest outcomes from the result records. Host time per layer
   inside a full run needs spans that read a clock, which the profiler
   does not have yet; the isolated probes ([Probes]) stand in for it. *)

module Trace = Bmcast_obs.Trace
module Metrics = Bmcast_obs.Metrics
module Profile = Bmcast_obs.Profile
module Analytics = Bmcast_obs.Analytics
module Histogram = Bmcast_obs.Stats.Histogram
module Scaleout = Bmcast_experiments.Scaleout

(* Figure 10's "BMcast devirt" bars (MB/s): the paper's post-devirt
   sequential read and write. *)
let paper_devirt_read = 114.6
let paper_devirt_write = 111.9

let ratio a b = if b = 0.0 then 0.0 else a /. b
let pct h p = if Histogram.count h = 0 then 0.0 else Histogram.percentile h p

type trace_counts = {
  aoe_ms : Histogram.t;
  mutable retransmits : int;
  redirect_ms : Histogram.t;
  mutable multiplexed : int;
  fetch_ms : Histogram.t;
  mutable fetch_errors : int;
  mutable suspensions : int;
  mutable pending_max : float;
}

let count_trace trace =
  let c =
    { aoe_ms = Histogram.create ();
      retransmits = 0;
      redirect_ms = Histogram.create ();
      multiplexed = 0;
      fetch_ms = Histogram.create ();
      fetch_errors = 0;
      suspensions = 0;
      pending_max = 0.0 }
  in
  let ms ev = float_of_int ev.Trace.dur /. 1e6 in
  Trace.iter trace (fun ev ->
      match (ev.Trace.phase, ev.Trace.cat, ev.Trace.name) with
      | Trace.P_span, "aoe", ("aoe-read" | "aoe-write" | "query-config") ->
        Histogram.add c.aoe_ms (ms ev)
      | Trace.P_instant, "aoe", "retransmit" -> c.retransmits <- c.retransmits + 1
      | Trace.P_span, "mediator", "redirect" -> Histogram.add c.redirect_ms (ms ev)
      | Trace.P_span, "mediator", "multiplexed-cmd" ->
        c.multiplexed <- c.multiplexed + 1
      | Trace.P_span, "bgcopy", "fetch" -> Histogram.add c.fetch_ms (ms ev)
      | Trace.P_instant, "bgcopy", "fetch-error" ->
        c.fetch_errors <- c.fetch_errors + 1
      | Trace.P_instant, "bgcopy", "moderation-suspend" ->
        c.suspensions <- c.suspensions + 1
      | Trace.P_counter, "sim", "event_queue_depth" ->
        c.pending_max <- Float.max c.pending_max ev.Trace.value
      | _ -> ());
  c

(* Calls and allocated words per call of the profiler categories whose
   name satisfies [pred]. *)
let profiled profile pred =
  List.fold_left
    (fun (calls, words) r ->
      if pred r.Profile.row_cat then
        (calls + r.Profile.calls, words +. r.Profile.minor_words)
      else (calls, words))
    (0, 0.0) (Profile.rows profile)
  |> fun (calls, words) -> (float_of_int calls, ratio words (float_of_int calls))

(* Sum of every registry instrument named [name], whatever its labels. *)
let registry_sum metrics name =
  Metrics.fold metrics
    ~filter:(fun k -> k = name || String.starts_with ~prefix:(name ^ "|") k)
    (fun _ v acc -> acc +. Metrics.scalar v)
    0.0

let stage_p50_s analytics stage =
  match
    List.find_opt
      (fun r -> r.Analytics.stage = stage)
      (Analytics.stage_rows analytics)
  with
  | Some r -> r.Analytics.p50_ms /. 1e3
  | None -> 0.0

(* Everything the traced child can measure; the parent adds the
   isolated probes and the overhead ratios, which need other runs.
   Metrics a workload does not exercise read 0. *)
let of_run (o : Workload.outcome) (obs : Workload.obs) =
  let c = count_trace obs.Workload.trace in
  let reg = registry_sum obs.Workload.metrics in
  let send_calls, send_wpc =
    profiled obs.Workload.profile (String.equal "net.send")
  in
  let aoe_rx_calls, aoe_rx_wpc =
    profiled obs.Workload.profile (String.equal "proto.aoe_rx")
  in
  let vblade_rx_calls, vblade_rx_wpc =
    profiled obs.Workload.profile (String.equal "proto.vblade_rx")
  in
  let mmio_calls, mmio_wpc =
    profiled obs.Workload.profile (String.starts_with ~prefix:"mmio.")
  in
  let mcast_deliveries = reg "net.mcast_deliveries" in
  let aoe_commands = float_of_int (Histogram.count c.aoe_ms) in
  let analytics =
    match o.Workload.fleet with
    | Some r -> r.Scaleout.analytics
    | None -> Analytics.of_trace obs.Workload.trace
  in
  (* Image bytes the clients needed, against what the storage tier, the
     peers and the carousel sent to deliver them. *)
  let needed, sent, replicas, ttdv_max =
    match (o.Workload.fleet, o.Workload.guest) with
    | Some r, _ ->
      ( float_of_int (r.Scaleout.machines * r.Scaleout.image_mb * 1024 * 1024),
        float_of_int
          (r.Scaleout.server_bytes + r.Scaleout.p2p_served_bytes
         + r.Scaleout.mcast_tx_bytes),
        float_of_int r.Scaleout.replicas,
        r.Scaleout.ttdv.Scaleout.max )
    | None, Some g ->
      ( float_of_int (g.Workload.image_sectors * 512),
        float_of_int g.Workload.served_bytes,
        1.0,
        g.Workload.devirt_s )
    | None, None -> (0.0, 0.0, 1.0, 0.0)
  in
  let fleet f = match o.Workload.fleet with Some r -> f r | None -> 0.0 in
  let guest f = match o.Workload.guest with Some g -> f g | None -> 0.0 in
  let fi = float_of_int in
  [ ("engine.events", fi o.Workload.events);
    ("engine.pending_max", c.pending_max);
    ("net.frames_sent", reg "net.frames_sent");
    ("net.frames_dropped", reg "net.frames_dropped");
    ("net.mcast_deliveries", mcast_deliveries);
    ("net.bytes_delivered", reg "net.bytes_delivered");
    ("net.send_calls", send_calls);
    ("net.send_words_per_call", send_wpc);
    ("proto.aoe_rx_calls", aoe_rx_calls);
    ("proto.aoe_rx_words_per_call", aoe_rx_wpc);
    ("proto.vblade_rx_calls", vblade_rx_calls);
    ("proto.vblade_rx_words_per_call", vblade_rx_wpc);
    ("proto.aoe_commands", aoe_commands);
    ("proto.aoe_retransmits", fi c.retransmits);
    ("proto.retransmit_ratio", ratio (fi c.retransmits) aoe_commands);
    ("proto.aoe_cmd_p50_ms", pct c.aoe_ms 50.0);
    ("proto.aoe_cmd_p99_ms", pct c.aoe_ms 99.0);
    ("proto.useful_byte_ratio", ratio needed sent);
    ( "proto.vblade_uplink_busy_frac",
      ratio (reg "vblade.uplink_busy_s") (replicas *. ttdv_max) );
    ("core.redirects", fi (Histogram.count c.redirect_ms));
    ("core.redirect_p50_ms", pct c.redirect_ms 50.0);
    ("core.bgcopy_fetches", fi (Histogram.count c.fetch_ms));
    ("core.bgcopy_fetch_p50_ms", pct c.fetch_ms 50.0);
    ("core.fetch_failures", fi c.fetch_errors);
    ("core.multiplexed_ops", fi c.multiplexed);
    ("core.moderation_suspensions", fi c.suspensions);
    ( "core.vm_exits",
      guest (fun g -> fi g.Workload.totals.Bmcast_core.Vmm.vm_exits) );
    ( "core.mcast_dup_frac",
      fleet (fun r -> ratio (fi r.Scaleout.mcast_dups) mcast_deliveries) );
    ("hw.mmio_calls", mmio_calls);
    ("hw.mmio_words_per_call", mmio_wpc) ]
  @ List.map
      (fun stage ->
        (Printf.sprintf "fleet.stage.%s_p50_s" stage, stage_p50_s analytics stage))
      [ "queue"; "vmm_init"; "discover"; "copy"; "devirt" ]
  @ [ ( "fleet.copy_critical_frac",
        ratio
          (fi
             (Option.value ~default:0
                (List.assoc_opt "copy" (Analytics.critical_path analytics))))
          (fi (Analytics.machine_count analytics)) );
      ("fleet.requests_routed", reg "fleet.requests_routed");
      ("fleet.failovers", fleet (fun r -> fi r.Scaleout.failovers));
      ("fleet.peak_queue", fleet (fun r -> fi r.Scaleout.peak_queue));
      ("fleet.p2p_routed", fleet (fun r -> fi r.Scaleout.p2p_routed));
      ( "fleet.p2p_failover_ratio",
        fleet (fun r ->
            ratio (fi r.Scaleout.p2p_failovers) (fi r.Scaleout.p2p_routed)) );
      ( "fleet.p2p_served_gb",
        fleet (fun r -> fi r.Scaleout.p2p_served_bytes /. 1e9) );
      ( "fleet.p2p_byte_share",
        fleet (fun r ->
            ratio (fi r.Scaleout.p2p_served_bytes)
              (fi (r.Scaleout.p2p_served_bytes + r.Scaleout.server_bytes))) );
      ("fleet.mcast_fill_frac", fleet (fun r -> ratio (fi r.Scaleout.mcast_fill_bytes) needed));
      ("fleet.gossip_announces", fleet (fun r -> fi r.Scaleout.gossip_announces));
      ("guest.os_boot_s", guest (fun g -> g.Workload.os_boot_s));
      ("guest.deploy_read_mb_s", guest (fun g -> g.Workload.deploy_read_mb_s));
      ("guest.deploy_write_mb_s", guest (fun g -> g.Workload.deploy_write_mb_s));
      ("guest.io_p50_ms", guest (fun g -> g.Workload.io_p50_ms));
      ("guest.io_p90_ms", guest (fun g -> g.Workload.io_p90_ms));
      ("guest.devirt_read_mb_s", guest (fun g -> g.Workload.devirt_read_mb_s));
      ("guest.devirt_write_mb_s", guest (fun g -> g.Workload.devirt_write_mb_s));
      ( "guest.paper_err_pct",
        guest (fun g ->
            50.0
            *. (Float.abs (g.Workload.devirt_read_mb_s -. paper_devirt_read)
                /. paper_devirt_read
               +. Float.abs (g.Workload.devirt_write_mb_s -. paper_devirt_write)
                  /. paper_devirt_write)) );
      ("obs.trace_dropped", fi (Trace.dropped obs.Workload.trace));
      ("obs.profile_mismatches", fi (Profile.mismatches obs.Workload.profile)) ]
