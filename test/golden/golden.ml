(* Golden-scalar regression tests: print the key figures of selected
   experiments at a fixed seed in a stable format. Dune diffs the output
   against the checked-in .expected files; after an intentional physics
   change, refresh them with `dune promote` (see test/README.md). *)

module Time = Bmcast_engine.Time
module Fig04 = Bmcast_experiments.Fig04_startup
module Fig14 = Bmcast_experiments.Fig14_moderation
module Scaleout = Bmcast_experiments.Scaleout
module Sim = Bmcast_engine.Sim
module Fabric = Bmcast_net.Fabric
module Vblade = Bmcast_proto.Vblade
module Trace = Bmcast_obs.Trace

let fig04 () =
  (* Small image so the regression stays fast; the ordering claims the
     paper makes (BMcast beats everything but bare metal post-firmware)
     hold at 2 GB too. *)
  let results = Fig04.measure ~image_gb:2 () in
  List.iter
    (fun r ->
      Printf.printf "%-12s firmware %8.3f  pre_os %8.3f  os_boot %8.3f  post_fw %8.3f\n"
        r.Fig04.label r.Fig04.firmware r.Fig04.pre_os r.Fig04.os_boot
        r.Fig04.total_post_firmware)
    results;
  let find l = List.find (fun r -> r.Fig04.label = l) results in
  Printf.printf "speedup_vs_image_copy_post_fw %.4f\n"
    ((find "Image Copy").Fig04.total_post_firmware
    /. (find "BMcast").Fig04.total_post_firmware)

let fig14 () =
  (* Three-point subset of the moderation sweep: the two extremes and a
     midpoint — enough to pin the moderation physics. *)
  let intervals = [ ("1s", Time.s 1); ("1ms", Time.ms 1); ("full-speed", 0) ] in
  List.iter
    (fun guest_op ->
      let tag = match guest_op with `Read -> "read" | `Write -> "write" in
      List.iter
        (fun p ->
          Printf.printf "%s %-10s guest %8.2f MB/s  vmm %8.2f MB/s\n" tag
            p.Fig14.interval_label p.Fig14.guest_mb_s p.Fig14.vmm_mb_s)
        (Fig14.measure ~intervals ~guest_op ()))
    [ `Read; `Write ]

let fleet () =
  (* One small fleet per distribution mode under constrained uplinks,
     so replica fan-out, peer serving and the carousel each carry bytes.
     Pins the virtual-time outcomes and byte accounting that the
     distribution suite only checks for convergence and run-to-run
     equality. *)
  List.iter
    (fun distribution ->
      let r =
        Scaleout.deploy_fleet ~seed:42 ~image_mb:4
          ~boot_profile:Bmcast_guest.Os.cloud_minimal ~limit_per_server:8
          ~uplink_mbps:100. ~mcast_passes:16 ~distribution ~machines:16
          ~replicas:2 ()
      in
      Printf.printf
        "%s ttfb p50 %.6f p90 %.6f  ttdv p50 %.6f p90 %.6f max %.6f\n"
        r.Scaleout.distribution r.ttfb.p50 r.ttfb.p90 r.ttdv.p50 r.ttdv.p90
        r.ttdv.max;
      Printf.printf
        "%s server_bytes %d peer_bytes %d mcast_tx_bytes %d \
         mcast_fill_bytes %d failovers %d events %d\n"
        r.distribution r.server_bytes r.p2p_served_bytes r.mcast_tx_bytes
        r.mcast_fill_bytes r.failovers r.sim_events)
    [ `Unicast; `P2p; `Mcast ]

let trace () =
  (* The scheduler's event order, pinned across builds: one small fleet
     per distribution mode with a NIC stall and a link flap on the
     storage tier, traced through the engine, fabric, AoE, fleet and
     server layers. The same-seed tests only compare two runs of one
     build; these digests must also survive a rewrite of the engine or
     of a process loop that claims to keep every event. *)
  let chaos sim _fabric vblades =
    let port i = Vblade.port (List.nth vblades i) in
    let at ms f = Sim.schedule sim (Time.ms ms) f in
    at 6500 (fun () -> Fabric.stall (port 0) (Time.ms 40));
    at 7000 (fun () -> Fabric.set_link_up (port 1) false);
    at 7300 (fun () -> Fabric.set_link_up (port 1) true)
  in
  List.iter
    (fun distribution ->
      let tr =
        Trace.create
          ~categories:[ "sim"; "net"; "aoe"; "fleet"; "server" ]
          ~sample_every:16 ()
      in
      let r =
        Scaleout.deploy_fleet ~seed:7 ~image_mb:2 ~machines:6 ~replicas:2
          ~limit_per_server:4 ~uplink_mbps:100. ~mcast_passes:6 ~distribution
          ~boot_profile:Bmcast_guest.Os.cloud_minimal ~chaos ~trace:tr ()
      in
      Printf.printf "%s trace events %d dropped %d md5 %s\n"
        r.Scaleout.distribution (Trace.event_count tr) (Trace.dropped tr)
        (Digest.to_hex (Digest.string (Trace.to_jsonl tr))))
    [ `Unicast; `P2p; `Mcast ]

let () =
  match Sys.argv with
  | [| _; "fig04" |] -> fig04 ()
  | [| _; "fig14" |] -> fig14 ()
  | [| _; "fleet" |] -> fleet ()
  | [| _; "trace" |] -> trace ()
  | _ ->
    prerr_endline "usage: golden (fig04|fig14|fleet|trace)";
    exit 2
