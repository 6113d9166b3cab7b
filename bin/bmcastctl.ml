(* bmcastctl: drive BMcast deployments on the simulated testbed.

     dune exec bin/bmcastctl.exe -- deploy --image-gb 8 --disk ahci
     dune exec bin/bmcastctl.exe -- chaos --scenario none --trace deploy.trace.json
     dune exec bin/bmcastctl.exe -- compare --image-gb 32
     dune exec bin/bmcastctl.exe -- params *)

module Sim = Bmcast_engine.Sim
module Time = Bmcast_engine.Time
module Machine = Bmcast_platform.Machine
module Os = Bmcast_guest.Os
module Vmm = Bmcast_core.Vmm
module Params = Bmcast_core.Params
module Stacks = Bmcast_experiments.Stacks
module Trace = Bmcast_obs.Trace
module Metrics = Bmcast_obs.Metrics
module Fault = Bmcast_faults.Fault
module Timeseries = Bmcast_obs.Timeseries
module Watchdog = Bmcast_obs.Watchdog
module Fabric = Bmcast_net.Fabric
module Disk = Bmcast_storage.Disk
module Vblade = Bmcast_proto.Vblade
module Content = Bmcast_storage.Content
module Block_io = Bmcast_guest.Block_io

let secs t = Time.to_float_s t

(* --- logging ---

   App-level messages are the tool's normal output and go to stdout
   bare, exactly as the old Printf-based output did. Everything else
   (errors, -v debug detail) goes to stderr with a prefix. *)

let reporter () =
  let report _src level ~over k msgf =
    let k _ =
      over ();
      k ()
    in
    let ppf =
      match level with
      | Logs.App -> Format.std_formatter
      | _ -> Format.err_formatter
    in
    msgf @@ fun ?header:_ ?tags:_ fmt ->
    match level with
    | Logs.App -> Format.kfprintf k ppf (fmt ^^ "@.")
    | level ->
      Format.kfprintf k ppf
        ("bmcastctl: [%s] " ^^ fmt ^^ "@.")
        (Logs.level_to_string (Some level))
  in
  { Logs.report }

let setup_logs quiet verbose =
  Logs.set_reporter (reporter ());
  Logs.set_level ~all:true
    (if quiet then None
     else if verbose then Some Logs.Debug
     else Some Logs.Warning)

(* Size and count flags take positive integers. A bad value is a usage
   error, reported before anything runs. *)
let positive flag n =
  if n < 1 then begin
    Logs.err (fun m -> m "--%s must be positive (got %d)" flag n);
    exit 2
  end

(* --- observability plumbing shared by the subcommands --- *)

let make_tracer ~sample_every = function
  | None -> Trace.null
  | Some _ -> Trace.create ~capacity:(1 lsl 22) ~sample_every ()

let make_metrics = function None -> Metrics.null | Some _ -> Metrics.create ()

let prefix_filter prefix =
  Option.map
    (fun p ->
      let n = String.length p in
      fun k -> String.length k >= n && String.sub k 0 n = p)
    prefix

let write_obs ~jsonl ?filter tracer trace_out metrics metrics_out =
  Option.iter
    (fun path ->
      (if jsonl then Trace.write_jsonl else Trace.write_chrome) tracer path;
      let dropped = Trace.dropped tracer in
      Logs.app (fun m ->
          m "trace: %d event(s) -> %s%s" (Trace.event_count tracer) path
            (if dropped > 0 then Printf.sprintf " (%d dropped)" dropped
             else "")))
    trace_out;
  Option.iter
    (fun path ->
      Metrics.write ?filter metrics path;
      Logs.app (fun m ->
          m "metrics: %d instrument(s) -> %s" (Metrics.size metrics) path))
    metrics_out

(* Watchdog outcome, shared by fleet and watch: the alert record plus
   every fault->alert detection latency the run measured. *)
let show_watchdog w =
  Logs.app (fun m ->
      m "watchdog: %d alert(s), %d detection(s)%s" (Watchdog.alert_count w)
        (List.length (Watchdog.detections w))
        (match Watchdog.pending_expectations w with
        | 0 -> ""
        | n -> Printf.sprintf ", %d expectation(s) unresolved" n));
  List.iter
    (fun a ->
      Logs.app (fun m ->
          m "  ! [%7.2fs] %s %s: %s"
            (float_of_int a.Watchdog.a_at /. 1e9)
            a.Watchdog.a_rule a.Watchdog.a_key a.Watchdog.a_msg))
    (Watchdog.alerts w);
  List.iter
    (fun d ->
      Logs.app (fun m ->
          m "  detected %S via %s (%s) in %.3fs" d.Watchdog.d_label
            d.Watchdog.d_rule d.Watchdog.d_key
            (float_of_int (Watchdog.detection_latency_ns d) /. 1e9)))
    (Watchdog.detections w)

(* --- deploy: one instance, streaming deployment, progress timeline --- *)

let deploy () image_gb disk watch trace_out metrics_out filter jsonl
    trace_sample =
  positive "image-gb" image_gb;
  positive "trace-sample" trace_sample;
  let disk_kind =
    match disk with
    | "ide" -> Machine.Ide_disk
    | "ahci" -> Machine.Ahci_disk
    | other ->
      Logs.err (fun m -> m "unknown disk kind %S (ahci|ide)" other);
      exit 2
  in
  let tracer = make_tracer ~sample_every:trace_sample trace_out in
  let metrics = make_metrics metrics_out in
  let env = Stacks.make_env ~image_gb ~trace:tracer ~metrics () in
  let m = Stacks.machine env ~name:"instance0" ~disk_kind () in
  Logs.app (fun l ->
      l "Deploying a %d GB image to %s over AoE (disk: %s)" image_gb
        m.Machine.name disk);
  Stacks.run env (fun () ->
      let t0 = Sim.clock () in
      let rt, vmm = Stacks.bmcast env m () in
      Logs.app (fun l ->
          l "[%7.2fs] VMM booted (PXE + init); deployment phase begins"
            (secs (Time.diff (Sim.clock ()) t0)));
      if watch then
        Sim.spawn (fun () ->
            let rec tick () =
              if Vmm.devirtualized_at vmm = None then begin
                Sim.sleep (Time.s 10);
                Logs.app (fun l ->
                    l "[%7.2fs] progress %5.1f%%  guest IO %.0f/s"
                      (secs (Time.diff (Sim.clock ()) t0))
                      (Vmm.progress vmm *. 100.0)
                      (Vmm.guest_io_rate vmm));
                tick ()
              end
            in
            tick ());
      Os.boot rt ();
      Logs.app (fun l ->
          l "[%7.2fs] guest OS up (instance is serving)"
            (secs (Time.diff (Sim.clock ()) t0)));
      Vmm.wait_devirtualized vmm;
      Logs.app (fun l ->
          l "[%7.2fs] de-virtualized: VMM gone, bare-metal phase"
            (secs (Time.diff (Sim.clock ()) t0)));
      let t = Vmm.totals vmm in
      Logs.app (fun l ->
          l
            "totals: %d redirects (%.1f MB copy-on-read), %.1f MB background \
             copy,\n        %d multiplexed commands, %d queued guest \
             commands, %d VM exits, %d AoE retransmits"
            t.Vmm.redirects
            (float_of_int t.Vmm.redirected_bytes /. 1e6)
            (float_of_int t.Vmm.background_bytes /. 1e6)
            t.Vmm.multiplexed_ops t.Vmm.queued_commands t.Vmm.vm_exits
            t.Vmm.aoe_retransmits);
      Logs.app (fun l -> l "lifecycle:");
      List.iter
        (fun (at, what) ->
          Logs.app (fun l -> l "  [%7.2fs] %s" (secs (Time.diff at t0)) what))
        (Vmm.events vmm));
  write_obs ~jsonl ?filter:(prefix_filter filter) tracer trace_out metrics
    metrics_out;
  0

(* --- single-machine testbed for the chaos command --- *)

type testbed = {
  sim : Sim.t;
  fabric : Fabric.t;
  server_disk : Disk.t;
  vblade : Vblade.t;
  machine : Machine.t;
  params : Params.t;
  image_sectors : int;
}

let make_testbed ~seed ~image_mb ~trace ~metrics =
  let image_sectors = image_mb * 2048 in
  Logs.debug (fun m ->
      m "testbed: %d MB image (%d sectors), seed %d" image_mb image_sectors
        seed);
  let sim = Sim.create ~seed ~trace ~metrics () in
  let fabric = Fabric.create sim () in
  let profile =
    { Disk.hdd_constellation2 with Disk.capacity_sectors = 2 * image_sectors }
  in
  let server_disk = Disk.create sim profile in
  Disk.fill_with_image server_disk;
  let vblade = Vblade.create sim ~fabric ~name:"server" ~disk:server_disk () in
  let machine =
    Machine.create sim ~name:"instance0" ~disk_profile:profile
      ~disk_kind:Machine.Ahci_disk ~fabric ()
  in
  let params = Params.default ~image_sectors in
  { sim; fabric; server_disk; vblade; machine; params; image_sectors }

(* The fault plan a scenario name stands for; "none" injects nothing,
   a clean deployment. *)
let resolve_plan ~seed ~image_sectors = function
  | "none" -> None
  | "random" ->
    Some (Fault.random_plan ~seed ~active:(Time.s 10) ~image_sectors)
  | scenario -> (
    match Fault.scenario ~image_sectors scenario with
    | Some p -> Some p
    | None ->
      Logs.err (fun m ->
          m "unknown scenario %S; known: none random %s" scenario
            (String.concat " " Fault.scenario_names));
      exit 2)

(* Boot the VMM, touch the disk once to force a copy-on-read redirect,
   then wait out the full deployment. *)
let spawn_deployment tb vmm_ref =
  Sim.spawn_at tb.sim ~name:"scenario" Time.zero (fun () ->
      let vmm =
        Vmm.boot tb.machine ~params:tb.params
          ~server_port:(Vblade.port_id tb.vblade) ()
      in
      vmm_ref := Some vmm;
      let blk = Block_io.attach tb.machine in
      ignore (Block_io.read blk ~lba:0 ~count:8 : Content.t array);
      Vmm.wait_devirtualized vmm)

(* --- chaos: deploy under a named fault scenario, check invariants --- *)

let chaos () scenario seed image_mb trace_out metrics_out filter jsonl
    trace_sample =
  positive "image-mb" image_mb;
  positive "trace-sample" trace_sample;
  let plan =
    resolve_plan ~seed ~image_sectors:(image_mb * 2048) scenario
  in
  let tracer = make_tracer ~sample_every:trace_sample trace_out in
  let metrics = make_metrics metrics_out in
  let tb = make_testbed ~seed ~image_mb ~trace:tracer ~metrics in
  Logs.app (fun m ->
      m "Chaos run: scenario %S, seed %d, %d MB image" scenario seed image_mb);
  let rig =
    { Fault.sim = tb.sim;
      fabric = tb.fabric;
      server = tb.vblade;
      server_disk = tb.server_disk }
  in
  let inj = Option.map (Fault.inject rig) plan in
  let vmm_ref = ref None in
  spawn_deployment tb vmm_ref;
  Sim.run ~until:(Time.minutes 60) tb.sim;
  let vmm = Option.get !vmm_ref in
  Logs.app (fun m -> m "fault trace:");
  Option.iter
    (fun inj ->
      List.iter
        (fun (at, what) ->
          Logs.app (fun m -> m "  [%7.2fs] %s" (secs at) what))
        (Fault.trace inj))
    inj;
  Logs.app (fun m -> m "lifecycle:");
  List.iter
    (fun (at, what) -> Logs.app (fun m -> m "  [%7.2fs] %s" (secs at) what))
    (Vmm.events vmm);
  let t = Vmm.totals vmm in
  Logs.app (fun m ->
      m
        "totals: %d retransmits, %d escalations, %d fetch failures, %d \
         server crashes, %d injected disk errors"
        t.Vmm.aoe_retransmits t.Vmm.aoe_escalations t.Vmm.fetch_failures
        (Vblade.crashes tb.vblade)
        (Disk.read_errors tb.server_disk));
  let checks =
    Fault.Invariants.all ~image_sectors:tb.image_sectors
      ~disk:tb.machine.Machine.disk vmm
  in
  Logs.app (fun m -> m "invariants:\n%s" (Fault.Invariants.report checks));
  write_obs ~jsonl ?filter:(prefix_filter filter) tracer trace_out metrics
    metrics_out;
  if Fault.Invariants.failures checks = [] then 0 else 1

(* --- fleet: many machines against a replicated storage tier --- *)

module Scaleout = Bmcast_experiments.Scaleout
module Replica_set = Bmcast_fleet.Replica_set
module Scheduler = Bmcast_fleet.Scheduler

(* "<ms>:<replica>" -> (span, replica index); the index must name one of
   the [replicas] storage replicas. *)
let parse_fault_spec ~replicas what s =
  let bad why =
    Logs.err (fun m -> m "bad --%s %S (%s)" what s why);
    exit 2
  in
  match String.split_on_char ':' s with
  | [ ms; i ] -> (
    match (int_of_string_opt ms, int_of_string_opt i) with
    | Some ms, Some i when ms >= 0 && i >= 0 ->
      if i >= replicas then
        bad (Printf.sprintf "replica %d out of range, %d replica(s)" i replicas)
      else (Time.ms ms, i)
    | _ -> bad "want <ms>:<replica>")
  | _ -> bad "want <ms>:<replica>"

let fleet_cmd () machines replicas policy sched limit image_mb seed crash
    restart trace_out metrics_out filter jsonl trace_sample =
  positive "machines" machines;
  positive "replicas" replicas;
  positive "limit-per-server" limit;
  positive "image-mb" image_mb;
  positive "trace-sample" trace_sample;
  let policy =
    match Replica_set.policy_of_string policy with
    | Some p -> p
    | None ->
      Logs.err (fun m ->
          m
            "unknown policy %S (shard | shard:<sectors> | least-outstanding \
             | weighted-rtt)"
            policy);
      exit 2
  in
  let sched =
    match Scheduler.wave_policy_of_string sched with
    | Some p -> p
    | None ->
      Logs.err (fun m ->
          m "unknown schedule %S (all | waves:<k> | stagger:<ms>)" sched);
      exit 2
  in
  let crashes = List.map (parse_fault_spec ~replicas "crash") crash in
  let restarts = List.map (parse_fault_spec ~replicas "restart") restart in
  let tracer = make_tracer ~sample_every:trace_sample trace_out in
  (* The fleet always runs with live telemetry so the watchdog summary
     below (and any --metrics snapshot) is populated. *)
  let metrics = Metrics.create () in
  let timeseries = Timeseries.create metrics in
  let watchdog = Watchdog.create Scaleout.default_rules in
  Watchdog.attach watchdog timeseries;
  Logs.app (fun m ->
      m
        "Fleet deployment: %d machine(s), %d storage replica(s), %d MB \
         image, policy %s, schedule %s"
        machines replicas image_mb
        (Replica_set.policy_to_string policy)
        (Scheduler.wave_policy_to_string sched));
  let r =
    Scaleout.deploy_fleet ~seed ~image_mb ~policy ~sched
      ~limit_per_server:limit ~crashes ~restarts ~trace:tracer ~metrics
      ~timeseries ~watchdog ~machines ~replicas ()
  in
  let show label (s : Scaleout.summary) =
    Logs.app (fun m ->
        m "  %-20s p50 %7.2fs  p90 %7.2fs  p99 %7.2fs  mean %7.2fs  max %7.2fs"
          label s.Scaleout.p50 s.Scaleout.p90 s.Scaleout.p99 s.Scaleout.mean
          s.Scaleout.max)
  in
  show "time-to-first-boot" r.Scaleout.ttfb;
  show "time-to-devirt" r.Scaleout.ttdv;
  Logs.app (fun m ->
      m
        "  admission: peak queue %d, peak in service %d, per-server leases \
         [%s]"
        r.Scaleout.peak_queue r.Scaleout.peak_in_service
        (Array.to_list r.Scaleout.admitted_per_server
        |> List.map string_of_int
        |> String.concat " "));
  Logs.app (fun m ->
      m "  storage tier: %.1f MB served, %d failover(s)"
        (float_of_int r.Scaleout.server_bytes /. 1e6)
        r.Scaleout.failovers);
  show_watchdog watchdog;
  write_obs ~jsonl ?filter:(prefix_filter filter) tracer trace_out metrics
    metrics_out;
  0

(* --- watch: live fleet-health dashboard over a seeded deployment --- *)

let spark_blocks =
  [| "\xe2\x96\x81"; "\xe2\x96\x82"; "\xe2\x96\x83"; "\xe2\x96\x84";
     "\xe2\x96\x85"; "\xe2\x96\x86"; "\xe2\x96\x87"; "\xe2\x96\x88" |]

let sparkline samples =
  match List.map snd samples with
  | [] -> ""
  | vs ->
    let lo = List.fold_left min infinity vs in
    let hi = List.fold_left max neg_infinity vs in
    let buf = Buffer.create (3 * List.length vs) in
    List.iter
      (fun v ->
        let i =
          if hi <= lo then 0
          else int_of_float (7.999 *. ((v -. lo) /. (hi -. lo)))
        in
        Buffer.add_string buf spark_blocks.(max 0 (min 7 i)))
      vs;
    Buffer.contents buf

let scalar_value metrics key =
  match Metrics.find metrics key with
  | Some v -> Metrics.scalar v
  | None -> 0.0

(* Keys worth a sparkline when no --filter narrows the view; shown in
   this order, skipping any not yet tracked. *)
let default_spark_keys =
  [ "fleet.sched.queue_depth";
    "fleet.sched.in_service";
    "copy.active";
    "copy.bytes";
    "net.bytes_delivered";
    "vblade.inflight|server=vblade0" ]

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: tl -> x :: take (n - 1) tl

let spark_keys ~filtered timeseries =
  if filtered then take 8 (Timeseries.keys timeseries)
  else
    List.filter
      (fun k -> Timeseries.status timeseries k <> None)
      default_spark_keys

let render_frame ~metrics ~timeseries ~watchdog ~filtered ~now =
  let stage s = scalar_value metrics ("fleet.stage|stage=" ^ s) in
  Logs.app (fun m ->
      m "-- t=%8.2fs  sweep %-4d keys %-4d alerts %d --"
        (float_of_int now /. 1e9)
        (Timeseries.sweeps timeseries)
        (Timeseries.nkeys timeseries)
        (Watchdog.alert_count watchdog));
  Logs.app (fun m ->
      m
        "   stages: vmm_init %.0f  discover %.0f  copy %.0f  devirt %.0f  \
         done %.0f | queue %.0f  in-service %.0f"
        (stage "vmm_init") (stage "discover") (stage "copy") (stage "devirt")
        (scalar_value metrics "fleet.devirtualized")
        (scalar_value metrics "fleet.sched.queue_depth")
        (scalar_value metrics "fleet.sched.in_service"));
  List.iter
    (fun key ->
      match Timeseries.raw ~n:32 timeseries key with
      | [] -> ()
      | samples ->
        let _, last = List.nth samples (List.length samples - 1) in
        Logs.app (fun m ->
            m "   %-32s %s %s" key (sparkline samples)
              (Timeseries.fmt_float last)))
    (spark_keys ~filtered timeseries);
  match Watchdog.firing watchdog with
  | [] -> ()
  | f ->
    Logs.app (fun m ->
        m "   firing: %s"
          (String.concat ", " (List.map (fun (r, k) -> r ^ "(" ^ k ^ ")") f)))

let watch_cmd () machines replicas limit image_mb seed crash restart
    interval_ms refresh filter rules min_alerts ts_out om_out =
  positive "machines" machines;
  positive "replicas" replicas;
  positive "limit-per-server" limit;
  positive "image-mb" image_mb;
  positive "interval-ms" interval_ms;
  positive "refresh" refresh;
  let crashes = List.map (parse_fault_spec ~replicas "crash") crash in
  let restarts = List.map (parse_fault_spec ~replicas "restart") restart in
  let rules =
    match rules with
    | [] -> Scaleout.default_rules
    | specs ->
      List.map
        (fun s ->
          try Watchdog.rule_of_string s
          with Invalid_argument msg ->
            Logs.err (fun m -> m "%s" msg);
            exit 2)
        specs
  in
  let metrics = Metrics.create () in
  let timeseries =
    Timeseries.create
      ~interval_ns:(Time.ms interval_ms)
      ?filter:(prefix_filter filter) metrics
  in
  let watchdog = Watchdog.create rules in
  (* Wire the watchdog first so each frame reflects the sweep that was
     just evaluated, then the dashboard subscriber. *)
  Watchdog.attach watchdog timeseries;
  let filtered = filter <> None in
  Timeseries.on_sample timeseries (fun ~now ->
      if Timeseries.sweeps timeseries mod refresh = 0 then
        render_frame ~metrics ~timeseries ~watchdog ~filtered ~now);
  Logs.app (fun m ->
      m
        "Watching fleet: %d machine(s), %d replica(s), %d MB image — sample \
         every %d ms, frame every %d sweep(s)"
        machines replicas image_mb interval_ms refresh);
  let r =
    Scaleout.deploy_fleet ~seed ~image_mb ~limit_per_server:limit ~crashes
      ~restarts ~metrics ~timeseries ~watchdog ~machines ~replicas ()
  in
  Logs.app (fun m ->
      m
        "done: ttfb p50 %.2fs max %.2fs | ttdv p50 %.2fs max %.2fs | %d \
         failover(s), %d sweep(s)"
        r.Scaleout.ttfb.Scaleout.p50 r.Scaleout.ttfb.Scaleout.max
        r.Scaleout.ttdv.Scaleout.p50 r.Scaleout.ttdv.Scaleout.max
        r.Scaleout.failovers (Timeseries.sweeps timeseries));
  show_watchdog watchdog;
  Option.iter
    (fun path ->
      Timeseries.write_csv timeseries path;
      Logs.app (fun m ->
          m "timeseries: %d key(s) -> %s" (Timeseries.nkeys timeseries) path))
    ts_out;
  Option.iter
    (fun path ->
      Timeseries.write_openmetrics timeseries path;
      Logs.app (fun m -> m "openmetrics: -> %s" path))
    om_out;
  if Watchdog.alert_count watchdog < min_alerts then begin
    Logs.err (fun m ->
        m "expected at least %d alert(s), saw %d" min_alerts
          (Watchdog.alert_count watchdog));
    1
  end
  else 0

(* --- report: provisioning analytics + allocation profile --- *)

module Analytics = Bmcast_obs.Analytics
module Profile = Bmcast_obs.Profile
module Os_guest = Bmcast_guest.Os

let report_cmd () machines replicas image_mb seed slo_s detailed output =
  positive "machines" machines;
  positive "replicas" replicas;
  positive "image-mb" image_mb;
  (* The per-operation table needs the op-level spans (AoE commands,
     copy-on-read redirects, background-copy chunks) in addition to the
     boot pipeline; record exactly those categories so fleet-scale runs
     stay inside the ring. *)
  let categories =
    if detailed then [ "boot"; "aoe"; "mediator"; "bgcopy" ] else [ "boot" ]
  in
  let tracer = Trace.create ~capacity:(1 lsl 22) ~categories () in
  let profile = Profile.create () in
  Logs.app (fun m ->
      m "Fleet report: %d machine(s), %d replica(s), %d MB image, seed %d"
        machines replicas image_mb seed);
  let r =
    Scaleout.deploy_fleet ~seed ~image_mb ~trace:tracer ~profile ~slo_s
      ~boot_profile:Os_guest.cloud_minimal ~machines ~replicas ()
  in
  let a = r.Scaleout.analytics in
  Logs.app (fun m -> m "%s" (Analytics.to_text a));
  Logs.app (fun m -> m "%s" (Profile.to_text profile));
  (match output with
  | Some path ->
    (* Same-seed runs are byte-identical in the "deterministic"
       section; the allocation figures depend on the host runtime and
       are quarantined under "nondeterministic". *)
    let oc = open_out_bin path in
    Printf.fprintf oc
      {|{"report":"bmcast-fleet","machines":%d,"replicas":%d,"image_mb":%d,"seed":%d,
"deterministic":%s,
"nondeterministic":%s}
|}
      machines replicas image_mb seed (Analytics.to_json a)
      (Profile.to_json profile);
    close_out oc;
    Logs.app (fun m -> m "report: -> %s" path)
  | None -> ());
  if Profile.mismatches profile > 0 then begin
    Logs.err (fun m ->
        m "profiler observed %d mismatched scope exits"
          (Profile.mismatches profile));
    1
  end
  else 0

(* --- compare: startup-time comparison (Figure 4 on demand) --- *)

let compare_cmd () image_gb =
  positive "image-gb" image_gb;
  Bmcast_experiments.Fig04_startup.run ~image_gb ();
  0

(* --- params: print the calibrated model constants --- *)

let params () () =
  let p = Params.default ~image_sectors:Params.image_32gb_sectors in
  Logs.app (fun m -> m "BMcast deployment parameters (32 GB image):");
  Logs.app (fun m ->
      m "  chunk                 %d sectors (%d KB)" p.Params.chunk_sectors
        (p.Params.chunk_sectors / 2));
  Logs.app (fun m ->
      m "  VMM-write interval    %s" (Time.to_string p.Params.write_interval));
  Logs.app (fun m ->
      m "  suspend interval      %s" (Time.to_string p.Params.suspend_interval));
  Logs.app (fun m ->
      m "  guest IO threshold    %.0f IOs/s" p.Params.guest_io_threshold);
  Logs.app (fun m ->
      m "  poll interval         %s" (Time.to_string p.Params.poll_interval));
  Logs.app (fun m ->
      m "  VMM memory            %d MB" (p.Params.vmm_mem_bytes / 1024 / 1024));
  Logs.app (fun m ->
      m "  VM-exit cost          %s" (Time.to_string p.Params.exit_cost));
  Logs.app (fun m ->
      m "  deployment CPU steal  %.1f%%" (p.Params.deploy_steal *. 100.0));
  0

let () =
  let open Cmdliner in
  let verbosity =
    let quiet =
      Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Suppress all output.")
    in
    let verbose =
      Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print debug detail.")
    in
    Term.(const setup_logs $ quiet $ verbose)
  in
  let image_gb =
    Arg.(value & opt int 8 & info [ "image-gb" ] ~docv:"GB" ~doc:"OS image size")
  in
  let disk =
    Arg.(value & opt string "ahci" & info [ "disk" ] ~docv:"KIND" ~doc:"ahci or ide")
  in
  let watch =
    Arg.(value & flag & info [ "watch" ] ~doc:"print deployment progress")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Write a Chrome trace of the run to $(docv).")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:"Write a metrics snapshot (JSON) to $(docv).")
  in
  let jsonl =
    Arg.(
      value & flag
      & info [ "jsonl" ]
          ~doc:"Write the trace as JSON-lines instead of Chrome JSON.")
  in
  let filter =
    Arg.(
      value
      & opt (some string) None
      & info [ "filter" ] ~docv:"PREFIX"
          ~doc:
            "Restrict metric output to keys starting with $(docv) \
             (e.g. $(b,fleet.) or $(b,vblade.)).")
  in
  let crash =
    Arg.(
      value & opt_all string []
      & info [ "crash" ] ~docv:"MS:REPLICA"
          ~doc:"crash replica $(i,REPLICA) $(i,MS) ms after fleet start \
                (repeatable)")
  in
  let restart =
    Arg.(
      value & opt_all string []
      & info [ "restart" ] ~docv:"MS:REPLICA"
          ~doc:"restart replica $(i,REPLICA) $(i,MS) ms after fleet start \
                (repeatable)")
  in
  let trace_sample =
    Arg.(
      value & opt int 1
      & info [ "trace-sample" ] ~docv:"N"
          ~doc:
            "Record every $(docv)th trace event per category (1 = record \
             all). Sampling keeps fleet-scale traces within the ring \
             buffer at a proportional cost in completeness.")
  in
  let deploy_cmd =
    Cmd.v
      (Cmd.info "deploy" ~doc:"stream-deploy one bare-metal instance")
      Term.(
        const deploy $ verbosity $ image_gb $ disk $ watch $ trace_out
        $ metrics_out $ filter $ jsonl $ trace_sample)
  in
  let compare_cmd =
    Cmd.v
      (Cmd.info "compare" ~doc:"compare startup time across deployment methods")
      Term.(const compare_cmd $ verbosity $ image_gb)
  in
  let scenario =
    Arg.(
      value
      & opt string "crash-mid-copy"
      & info [ "scenario" ] ~docv:"NAME"
          ~doc:
            "fault scenario ('none' for a clean deployment, 'random' for a \
             seeded random plan)")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed")
  in
  let image_mb =
    Arg.(
      value & opt int 256
      & info [ "image-mb" ] ~docv:"MB" ~doc:"OS image size in MB")
  in
  let chaos_cmd =
    Cmd.v
      (Cmd.info "chaos"
         ~doc:"deploy under a named fault scenario and check invariants")
      Term.(
        const chaos $ verbosity $ scenario $ seed $ image_mb $ trace_out
        $ metrics_out $ filter $ jsonl $ trace_sample)
  in
  let params_cmd =
    Cmd.v
      (Cmd.info "params" ~doc:"print deployment parameters")
      Term.(const params $ verbosity $ const ())
  in
  let fleet_cmd =
    let machines =
      Arg.(
        value & opt int 16
        & info [ "machines" ] ~docv:"N" ~doc:"fleet size (deployments)")
    in
    let replicas =
      Arg.(
        value & opt int 3
        & info [ "replicas" ] ~docv:"N"
            ~doc:"storage replicas exporting the golden image")
    in
    let policy =
      Arg.(
        value
        & opt string "least-outstanding"
        & info [ "policy" ] ~docv:"POLICY"
            ~doc:
              "replica selection: $(b,shard), $(b,shard:<sectors>), \
               $(b,least-outstanding) or $(b,weighted-rtt)")
    in
    let sched =
      Arg.(
        value & opt string "all"
        & info [ "schedule" ] ~docv:"POLICY"
            ~doc:
              "deployment start policy: $(b,all), $(b,waves:<k>) or \
               $(b,stagger:<ms>)")
    in
    let limit =
      Arg.(
        value & opt int 4
        & info [ "limit-per-server" ] ~docv:"N"
            ~doc:"admission limit: concurrent deployments per storage server")
    in
    Cmd.v
      (Cmd.info "fleet"
         ~doc:
           "deploy a fleet of machines against a replicated storage tier \
            under admission control")
      Term.(
        const fleet_cmd $ verbosity $ machines $ replicas $ policy $ sched
        $ limit $ image_mb $ seed $ crash $ restart $ trace_out $ metrics_out
        $ filter $ jsonl $ trace_sample)
  in
  let watch_cmd =
    let machines =
      Arg.(
        value & opt int 16
        & info [ "machines" ] ~docv:"N" ~doc:"fleet size (deployments)")
    in
    let replicas =
      Arg.(
        value & opt int 3
        & info [ "replicas" ] ~docv:"N"
            ~doc:"storage replicas exporting the golden image")
    in
    let limit =
      Arg.(
        value & opt int 4
        & info [ "limit-per-server" ] ~docv:"N"
            ~doc:"admission limit: concurrent deployments per storage server")
    in
    let interval_ms =
      Arg.(
        value & opt int 1000
        & info [ "interval-ms" ] ~docv:"MS"
            ~doc:"sampling interval in virtual milliseconds")
    in
    let refresh =
      Arg.(
        value & opt int 5
        & info [ "refresh" ] ~docv:"N"
            ~doc:"render a dashboard frame every $(docv) sweeps")
    in
    let rule =
      Arg.(
        value & opt_all string []
        & info [ "rule" ] ~docv:"SPEC"
            ~doc:
              "watchdog rule (repeatable): $(b,NAME:KEY>VAL[@HOLD]), \
               $(b,NAME:KEY<VAL[@HOLD]), $(b,NAME:rate(KEY)>VAL), \
               $(b,NAME:absent(KEY)@N) or $(b,NAME:stale(KEY)@N). \
               Default: $(b,server-down:vblade.up<0.5).")
    in
    let min_alerts =
      Arg.(
        value & opt int 0
        & info [ "min-alerts" ] ~docv:"N"
            ~doc:
              "exit non-zero unless at least $(docv) watchdog alert(s) \
               fired (CI smoke assertion)")
    in
    let ts_out =
      Arg.(
        value
        & opt (some string) None
        & info [ "timeseries-out" ] ~docv:"FILE"
            ~doc:"write the sampled time series as CSV to $(docv)")
    in
    let om_out =
      Arg.(
        value
        & opt (some string) None
        & info [ "openmetrics-out" ] ~docv:"FILE"
            ~doc:"write the final sweep as OpenMetrics text to $(docv)")
    in
    Cmd.v
      (Cmd.info "watch"
         ~doc:
           "deploy a fleet and render a live fleet-health dashboard (stage \
            occupancy, sparklines, watchdog alerts) from the in-run \
            time-series sampler")
      Term.(
        const watch_cmd $ verbosity $ machines $ replicas $ limit $ image_mb
        $ seed $ crash $ restart $ interval_ms $ refresh $ filter $ rule
        $ min_alerts $ ts_out $ om_out)
  in
  let report_cmd =
    let machines =
      Arg.(
        value & opt int 1000
        & info [ "machines" ] ~docv:"N" ~doc:"fleet size (deployments)")
    in
    let replicas =
      Arg.(
        value & opt int 16
        & info [ "replicas" ] ~docv:"N"
            ~doc:"storage replicas exporting the golden image")
    in
    let report_image_mb =
      Arg.(
        value & opt int 8
        & info [ "image-mb" ] ~docv:"MB" ~doc:"OS image size in MB")
    in
    let slo =
      Arg.(
        value & opt float 120.0
        & info [ "slo" ] ~docv:"SECONDS"
            ~doc:"provisioning-time SLO target evaluated by the report")
    in
    let detailed =
      Arg.(
        value & flag
        & info [ "detailed" ]
            ~doc:
              "also record per-operation spans (AoE commands, copy-on-read \
               redirects, copy chunks) for the per-operation latency table")
    in
    let output =
      Arg.(
        value
        & opt (some string) None
        & info [ "o"; "output" ] ~docv:"FILE"
            ~doc:
              "write the report as JSON to $(docv) (deterministic analytics \
               and non-deterministic allocation figures in separate \
               sections)")
    in
    Cmd.v
      (Cmd.info "report"
         ~doc:
           "run a seeded fleet deployment and report boot-stage latency \
            percentiles, critical-path attribution, SLO compliance and the \
            top-allocators table")
      Term.(
        const report_cmd $ verbosity $ machines $ replicas $ report_image_mb
        $ seed $ slo $ detailed $ output)
  in
  let group =
    Cmd.group
      (Cmd.info "bmcastctl" ~doc:"BMcast bare-metal deployment control")
      [ deploy_cmd;
        chaos_cmd;
        compare_cmd;
        fleet_cmd;
        watch_cmd;
        report_cmd;
        params_cmd ]
  in
  exit (Cmd.eval' group)
