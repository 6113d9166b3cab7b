(* The benchmark's definition: workloads, end-to-end metrics with their
   regression bounds, and the per-layer ledger. BENCHMARK.json at the
   repository root is rendered from this module ([main.exe spec]) and
   the smoke test pins the two equal. *)

type better = Lower | Higher

(* Host metrics measure the simulator on the machine running it and
   are noisy; virtual metrics are the simulated system's outcome, exact
   for a given seed and moving only with the seed. *)
type kind = Host | Virtual

type metric = {
  name : string;
  unit_ : string;
  kind : kind;
  better : better;
  bound : float;  (** share of the parent's median a change may lose *)
}

let command = [ "python3"; "benchmark/run.py" ]
let paths = [ "benchmark" ]
let run_seconds = 20
let default_seed = 42
let default_reps = 5

(* Why each workload exists: together they put load on every layer, and
   each layer's mechanism has a workload that exercises it and one that
   bypasses it. *)
let workloads =
  [ ( "burst_unicast",
      "500 clients x 16 replicas released at once, 1 MB image: engine \
       dispatch, unicast fabric, AoE/vblade and MMIO polling carry the \
       load; P2P, multicast and guest I/O idle" );
    ( "p2p_swarm",
      "100 clients, 2 replicas, 8 MB image, 100 Mb/s uplinks, P2P: peers \
       serve about 45% of the bytes; the only load on peer routing, gossip \
       and peer serving" );
    ( "mcast_carousel",
      "p2p_swarm's tier in multicast mode, 16 MB image: one send fans out \
       to every booting client and the carousel fills most image bytes by \
       write-if-empty" );
    ( "guest_io",
      "one machine, 2 GB image: guest fio/ioping through mediators, \
       moderation and AHCI multiplexing during and after deployment; \
       fleet layers idle" ) ]

let host name unit_ better bound = { name; unit_; kind = Host; better; bound }

let virt name unit_ better bound =
  { name; unit_; kind = Virtual; better; bound }

(* Bounds are shares of the parent's median, sized from sets of ten
   runs on a shared 2-core virtual machine (benchmark/README.md). Every
   bound but set-up time's is at least three times the largest spread a
   set showed. Virtual metrics, allocation and heap repeat exactly for a
   seed, so their bounds only cover what other seeds change (disk
   rotation, copy jitter, boot traces, retransmission storms);
   [benchmark compare] gates them exactly at one seed, and every run
   checks that its reps reproduce their seed's reference rep bit for
   bit. Host timings are at the reference speed ([Calibration]).
   Set-up time, a few hundred microseconds, takes the format's 25%
   ceiling. *)
let end_to_end =
  [ host "setup_s" "s" Lower 0.25;
    host "run_s" "s" Lower 0.15;
    host "events_per_s" "1/s" Higher 0.15;
    host "alloc_words_per_event" "words" Lower 0.06;
    host "peak_heap_mb" "MB" Lower 0.12;
    virt "ttfb_p50_s" "s" Lower 0.2;
    virt "ttfb_p90_s" "s" Lower 0.15;
    virt "ttdv_p50_s" "s" Lower 0.2;
    virt "ttdv_p90_s" "s" Lower 0.15;
    virt "tier_egress_gb" "GB" Lower 0.15 ]

let find_metric name = List.find (fun m -> m.name = name) end_to_end

type layer_metric = {
  lname : string;
  lunit : string;
  lbetter : better;
  moves : string;  (** the end-to-end metric and workload it should move *)
}

let lm ?(better = Lower) lname lunit moves =
  { lname; lunit; lbetter = better; moves }

let per_layer =
  let burst_run = "run_s/events_per_s on burst_unicast" in
  let egress = "tier_egress_gb, ttdv_p50_s, run_s on burst_unicast/p2p_swarm" in
  let guest = "ttdv_p50_s on guest_io" in
  let p2p = "ttdv_p90_s on p2p_swarm, ttfb_p50_s on burst_unicast" in
  let paper = "none: after devirt, checked against the paper's fig10" in
  [ (* engine *)
    lm "engine.events" "count" burst_run;
    lm "engine.pending_max" "count" burst_run;
    lm "engine.wheel_churn_ns" "ns" burst_run;
    lm "engine.sleep_ns" "ns" burst_run;
    lm "engine.prng_zipf_ns" "ns" burst_run;
    (* net *)
    lm "net.frames_sent" "count" "run_s on mcast_carousel";
    lm "net.frames_dropped" "count" "run_s on mcast_carousel";
    lm "net.mcast_deliveries" "count" "run_s on mcast_carousel";
    lm "net.bytes_delivered" "bytes" "run_s on mcast_carousel";
    lm "net.send_calls" "count" "alloc_words_per_event on burst_unicast";
    lm "net.send_words_per_call" "words" "alloc_words_per_event on burst_unicast";
    lm "net.send_ns" "ns" "run_s on burst_unicast";
    lm "net.mcast_fanout_ns" "ns" "run_s on mcast_carousel";
    (* proto *)
    lm "proto.aoe_rx_calls" "count" egress;
    lm "proto.aoe_rx_words_per_call" "words" "alloc_words_per_event on burst_unicast";
    lm "proto.vblade_rx_calls" "count" egress;
    lm "proto.vblade_rx_words_per_call" "words" "alloc_words_per_event on burst_unicast";
    lm "proto.aoe_commands" "count" egress;
    lm "proto.aoe_retransmits" "count" egress;
    lm "proto.retransmit_ratio" "ratio" egress;
    lm "proto.aoe_cmd_p50_ms" "ms" egress;
    lm "proto.aoe_cmd_p99_ms" "ms" egress;
    lm ~better:Higher "proto.useful_byte_ratio" "ratio" egress;
    lm "proto.vblade_uplink_busy_frac" "ratio" egress;
    lm "proto.aoe_codec_ns" "ns" burst_run;
    lm "proto.gossip_codec_ns" "ns" "run_s on p2p_swarm";
    (* core *)
    lm "core.redirects" "count" guest;
    lm "core.redirect_p50_ms" "ms" guest;
    lm "core.bgcopy_fetches" "count" guest;
    lm "core.bgcopy_fetch_p50_ms" "ms" guest;
    lm "core.fetch_failures" "count" guest;
    lm "core.multiplexed_ops" "count" guest;
    lm "core.moderation_suspensions" "count" guest;
    lm "core.vm_exits" "count" "run_s on guest_io";
    lm "core.mcast_dup_frac" "ratio" "ttdv_p50_s on mcast_carousel";
    lm "core.bitmap_fill_ns" "ns" "run_s on guest_io";
    lm "core.bitmap_scan_ns" "ns" "run_s on guest_io";
    (* storage *)
    lm "storage.extent_set_ns" "ns" "run_s on mcast_carousel/guest_io";
    (* hw *)
    lm "hw.mmio_calls" "count" burst_run;
    lm "hw.mmio_words_per_call" "words" "alloc_words_per_event on burst_unicast";
    (* fleet *)
    lm "fleet.stage.queue_p50_s" "s" p2p;
    lm "fleet.stage.vmm_init_p50_s" "s" p2p;
    lm "fleet.stage.discover_p50_s" "s" p2p;
    lm "fleet.stage.copy_p50_s" "s" p2p;
    lm "fleet.stage.devirt_p50_s" "s" p2p;
    lm "fleet.copy_critical_frac" "ratio" p2p;
    lm "fleet.requests_routed" "count" p2p;
    lm "fleet.failovers" "count" p2p;
    lm "fleet.peak_queue" "count" p2p;
    lm ~better:Higher "fleet.p2p_routed" "count" p2p;
    lm "fleet.p2p_failover_ratio" "ratio" p2p;
    lm ~better:Higher "fleet.p2p_served_gb" "GB" "tier_egress_gb on p2p_swarm";
    lm ~better:Higher "fleet.p2p_byte_share" "ratio" "tier_egress_gb on p2p_swarm";
    lm ~better:Higher "fleet.mcast_fill_frac" "ratio" "tier_egress_gb on mcast_carousel";
    lm "fleet.gossip_announces" "count" "run_s on p2p_swarm";
    (* guest *)
    lm "guest.os_boot_s" "s" "ttfb_p50_s on guest_io";
    lm ~better:Higher "guest.deploy_read_mb_s" "MB/s" guest;
    lm ~better:Higher "guest.deploy_write_mb_s" "MB/s" guest;
    lm "guest.io_p50_ms" "ms" guest;
    lm "guest.io_p90_ms" "ms" guest;
    lm ~better:Higher "guest.devirt_read_mb_s" "MB/s" paper;
    lm ~better:Higher "guest.devirt_write_mb_s" "MB/s" paper;
    lm "guest.paper_err_pct" "%" paper;
    (* obs *)
    lm "obs.trace_overhead_pct" "%" "run_s on burst_unicast";
    lm "obs.overhead_pct" "%" "run_s on burst_unicast";
    lm "obs.trace_dropped" "count" "run_s on burst_unicast";
    lm "obs.profile_mismatches" "count" "run_s on burst_unicast" ]

(* A metric or workload name: starts with a letter or digit, at most 64
   letters, digits, '_', '.' and '-'. *)
let valid_name s =
  let ok = function
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
    | _ -> false
  in
  String.length s > 0
  && String.length s <= 64
  && (match s.[0] with
     | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true
     | _ -> false)
  && String.for_all ok s

let better_string = function Lower -> "lower" | Higher -> "higher"
let kind_string = function Host -> "host" | Virtual -> "virtual"

(* BENCHMARK.json, one entry per line so diffs stay readable. *)
let benchmark_json () =
  let s = Json.to_string in
  let str x = s (Json.Str x) in
  let list items = "[\n    " ^ String.concat ",\n    " items ^ "\n  ]" in
  let workload (name, why) =
    s (Json.Obj [ ("name", Json.Str name); ("why", Json.Str why) ])
  in
  let e2e m =
    s
      (Json.Obj
         [ ("name", Json.Str m.name);
           ("unit", Json.Str m.unit_);
           ("better", Json.Str (better_string m.better));
           ("bound", Json.Num m.bound) ])
  in
  let layer m =
    s
      (Json.Obj
         [ ("name", Json.Str m.lname);
           ("unit", Json.Str m.lunit);
           ("better", Json.Str (better_string m.lbetter)) ])
  in
  Printf.sprintf
    "{\n\
    \  \"command\": [%s],\n\
    \  \"paths\": [%s],\n\
    \  \"run_seconds\": %d,\n\
    \  \"workloads\": %s,\n\
    \  \"end_to_end\": %s,\n\
    \  \"per_layer\": %s\n\
     }\n"
    (String.concat ", " (List.map str command))
    (String.concat ", " (List.map str paths))
    run_seconds
    (list (List.map workload workloads))
    (list (List.map e2e end_to_end))
    (list (List.map layer per_layer))
