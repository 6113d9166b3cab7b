(* The four workloads, each one closed-loop deployment driven through the
   simulator's public entry points ([Scaleout.deploy_fleet], [Stacks],
   [Vmm], the guest benchmarks). One call of [run] is one rep: it builds
   the testbed, runs it to completion, and returns the simulated
   outcome next to the host cost of producing it. *)

module Sim = Bmcast_engine.Sim
module Time = Bmcast_engine.Time
module Stats = Bmcast_obs.Stats
module Trace = Bmcast_obs.Trace
module Metrics = Bmcast_obs.Metrics
module Profile = Bmcast_obs.Profile
module Timeseries = Bmcast_obs.Timeseries
module Watchdog = Bmcast_obs.Watchdog
module Content = Bmcast_storage.Content
module Disk = Bmcast_storage.Disk
module Machine = Bmcast_platform.Machine
module Vblade = Bmcast_proto.Vblade
module Vmm = Bmcast_core.Vmm
module Os = Bmcast_guest.Os
module Fio = Bmcast_guest.Fio
module Ioping = Bmcast_guest.Ioping
module Scaleout = Bmcast_experiments.Scaleout
module Stacks = Bmcast_experiments.Stacks

type t = Burst_unicast | P2p_swarm | Mcast_carousel | Guest_io

let all = [ Burst_unicast; P2p_swarm; Mcast_carousel; Guest_io ]

let name = function
  | Burst_unicast -> "burst_unicast"
  | P2p_swarm -> "p2p_swarm"
  | Mcast_carousel -> "mcast_carousel"
  | Guest_io -> "guest_io"

let of_name s = List.find_opt (fun w -> name w = s) all

(* [Small] shrinks every workload (16 clients, a 1 GB guest image) for
   the smoke test; the benchmark always runs [Full]. *)
type scale = Full | Small

type fleet_shape = {
  machines : int;
  replicas : int;
  image_mb : int;
  limit_per_server : int;
  distribution : Scaleout.distribution;
  uplink_mbps : float option;
}

(* Each Full rep costs 1-4.5 s of host time on a 2-core box, so a run
   holds several reps. 100 clients is the smallest fleet whose p90 has
   ten samples beyond it.
   - [burst_unicast] keeps the 500-client, 16-replica burst but a 1 MB
     image: at 2 MB a rep costs 7-8 s. The guests' boot reads span 1 GB
     and mostly fall outside the image, so the boot itself is the same.
   - [p2p_swarm]: peers serve 40-45% of the bytes clients receive at
     8, 16, 32 and 64 MB images alike, so it keeps the cheapest.
   - [mcast_carousel] takes 16 MB: the carousel fills 84% of the image
     bytes there, against 67% at 8 MB, where the servers' unicast
     traffic outweighs it; at 12 MB it fills as much, but the virtual
     metrics spread twice as much over seeds. *)
let fleet_shape scale w =
  let machines full = match scale with Full -> full | Small -> 16 in
  let swarm distribution image_mb =
    Some
      { machines = machines 100;
        replicas = 2;
        image_mb;
        limit_per_server = 8;
        distribution;
        uplink_mbps = Some 100. }
  in
  match w with
  | Burst_unicast ->
    Some
      { machines = machines 500;
        replicas = (match scale with Full -> 16 | Small -> 2);
        image_mb = 1;
        limit_per_server = 4;
        distribution = `Unicast;
        uplink_mbps = None }
  | P2p_swarm -> swarm `P2p 8
  | Mcast_carousel -> swarm `Mcast 16
  | Guest_io -> None

let guest_image_gb = function Full -> 2 | Small -> 1

(* Digest of every client disk after deployment ([Scaleout]'s
   [image_digest]): each disk must hold the golden image, so the digest
   depends only on the fleet's size and image, never on the seed or the
   distribution mode. *)
let golden_digest scale w =
  match (scale, w) with
  | Full, Burst_unicast -> "6350cde36bc53c638d73d90e0adf91a4"
  | Full, P2p_swarm -> "9aa3cbf276e8574e9a06b235704a5ac6"
  | Full, Mcast_carousel -> "731343409fb1ae683fa273ee49436b7f"
  | Small, Burst_unicast -> "d94319f1fd235a3e8f94d280fc33a455"
  | Small, P2p_swarm -> "6394145d7bf75cfd74cb4cc027cc0109"
  | Small, Mcast_carousel -> "457e8517bef4af9dfc1984a1ae79c0fa"
  | _, Guest_io -> invalid_arg "golden_digest: guest_io has no fleet"

(* A run measures several seeds, derived from the one it is given, so
   its medians rest on more than one seed's draw of the simulated
   system; runs with different seeds use disjoint seed sets. Rep [i]
   of a run uses [rep_seed ~seed i]. *)
let seeds_per_run = 5
let rep_seed ~seed i = (seed * seeds_per_run) + (i mod seeds_per_run)

type mode =
  | Timed  (** the deployment as users run it: default telemetry *)
  | Lean
      (** telemetry off: an idle sampler, an empty watchdog and the
          null tracer, all supplied by the caller *)
  | Check  (** [Timed] plus the image-digest or disk-layout check *)
  | Traced
      (** [Timed] with the caller's trace, allocation profile and
          metrics registry attached; no checks, so its host time
          differs from [Timed] only by the cost of observing *)

let mode_name = function
  | Timed -> "timed"
  | Lean -> "lean"
  | Check -> "check"
  | Traced -> "traced"

let mode_of_name = function
  | "timed" -> Some Timed
  | "lean" -> Some Lean
  | "check" -> Some Check
  | "traced" -> Some Traced
  | _ -> None

(* What the traced run records. Per-frame [net] and per-operation
   [storage] events are left out: the registry and the profiler count
   those layers, and a ring holding every frame would be larger than the
   simulation it describes. Scheduler sleeps are sampled 1 in 4096; the
   scheduler's queue-depth counter (every 8192 events) is unsampled. *)
type obs = { trace : Trace.t; metrics : Metrics.t; profile : Profile.t }

let traced_categories =
  [ "boot"; "aoe"; "mediator"; "bgcopy"; "fleet"; "server"; "vmm";
    "watchdog"; "sim" ]

let make_obs () =
  { trace =
      Trace.create ~capacity:(1 lsl 20) ~categories:traced_categories
        ~sample_every:4096 ();
    metrics = Metrics.create ();
    profile = Profile.create () }

type guest = {
  image_sectors : int;
  os_boot_s : float;  (** duration of [Os.boot] alone *)
  boot_s : float;  (** virtual time when [Os.boot] returned *)
  devirt_s : float;
  deploy_read_mb_s : float;  (** copy-on-read, before the copy reaches it *)
  deploy_write_mb_s : float;
  io_p50_ms : float;
  io_p90_ms : float;
  devirt_read_mb_s : float;
  devirt_write_mb_s : float;
  totals : Vmm.totals;
  served_bytes : int;
}

type outcome = {
  events : int;
  virt : (string * float) list;
      (** the virtual end-to-end metrics, in [Spec.end_to_end] order *)
  fleet : Scaleout.result option;
  guest : guest option;
  problems : string list;  (** failed correctness checks; [] when sound *)
}

(* Host times are at the reference speed ([Calibration]); [speed] is
   the host's mean speed during the rep. *)
type host = {
  setup_s : float;
  run_s : float;
  speed : float;
  alloc_words : float;  (** words allocated between set-up and result *)
  top_heap_words : int;
}

let now_s = Calibration.now_s

(* Words allocated so far, blocks too large for the minor heap included
   ([Gc.minor_words] misses those). In OCaml 5.1 the count moves only at
   minor collections, so it lags by up to a minor heap: under 1% of the
   tens of millions of words a rep allocates. *)
let alloc_words () = Gc.allocated_bytes () /. 8.

(* The host record of a rep whose set-up ran from [t0] to [t_built] and
   whose run, sampled by [sampler], ends now. *)
let host_of ~t0 ~t_built ~w_built sampler =
  Calibration.stop sampler;
  let t_end = now_s () and w_end = alloc_words () in
  let c = Calibration.reading sampler in
  { setup_s = (t_built -. t0) *. c.Calibration.scale;
    run_s = (t_end -. t_built -. c.Calibration.kernel_s) *. c.Calibration.scale;
    speed = c.Calibration.speed;
    alloc_words = w_end -. w_built -. c.Calibration.kernel_words;
    top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words }

let clock_s () = Time.to_float_s (Sim.clock ())

let virt_metrics ~ttfb ~ttdv ~egress_bytes =
  let ttfb50, ttfb90 = ttfb and ttdv50, ttdv90 = ttdv in
  [ ("ttfb_p50_s", ttfb50);
    ("ttfb_p90_s", ttfb90);
    ("ttdv_p50_s", ttdv50);
    ("ttdv_p90_s", ttdv90);
    ("tier_egress_gb", float_of_int egress_bytes /. 1e9) ]

let run_fleet ~golden shape ~seed ~mode ~obs =
  let sampler = Calibration.create () in
  let t0 = now_s () in
  let t_built = ref t0 and w_built = ref 0. in
  (* [chaos] fires once fabric, disks and vblades exist, just before the
     fleet starts: the end of set-up. *)
  let chaos _ _ _ =
    t_built := now_s ();
    Calibration.start sampler;
    w_built := alloc_words ()
  in
  let trace, metrics, profile, timeseries, watchdog =
    match mode with
    | Timed | Check -> (None, None, None, None, None)
    | Traced ->
      let o = Option.get obs in
      (Some o.trace, Some o.metrics, Some o.profile, None, None)
    | Lean ->
      let m = Metrics.create () in
      ( Some Trace.null,
        Some m,
        None,
        Some
          (Timeseries.create ~filter:(fun _ -> false)
             ~interval_ns:3_600_000_000_000 m),
        Some (Watchdog.create []) )
  in
  let r =
    Scaleout.deploy_fleet ~seed ~image_mb:shape.image_mb
      ~boot_profile:Os.cloud_minimal ~limit_per_server:shape.limit_per_server
      ~distribution:shape.distribution ?uplink_mbps:shape.uplink_mbps
      ~mcast_passes:shape.machines ~chaos ~digest_images:(mode = Check) ?trace
      ?metrics ?profile ?timeseries ?watchdog ~machines:shape.machines
      ~replicas:shape.replicas ()
  in
  let host =
    host_of ~t0 ~t_built:!t_built ~w_built:!w_built sampler
  in
  let problems =
    if mode <> Check then []
    else
      (match r.Scaleout.images_ok with
      | Some true -> []
      | _ -> [ "a client disk differs from the golden image" ])
      @
      match r.Scaleout.image_digest with
      | Some d when d = golden -> []
      | d ->
        [ Printf.sprintf "image digest %s, golden %s"
            (Option.value d ~default:"none")
            golden ]
  in
  let s = r.Scaleout.ttfb and d = r.Scaleout.ttdv in
  ( { events = r.Scaleout.sim_events;
      virt =
        virt_metrics
          ~ttfb:(s.Scaleout.p50, s.Scaleout.p90)
          ~ttdv:(d.Scaleout.p50, d.Scaleout.p90)
          ~egress_bytes:(r.Scaleout.server_bytes + r.Scaleout.mcast_tx_bytes);
      fleet = Some r;
      guest = None;
      problems },
    host )

let fio_bytes = 200 * 1024 * 1024

(* Right after de-virtualization, before the post-devirt writes: the
   deploy-phase write range holds guest data (no late fill clobbered
   it) and every other image sector equals the server's image. *)
let layout_problems disk ~image_sectors ~write_lba ~write_sectors =
  let problems = ref [] in
  let note fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let chunk = 1 lsl 16 in
  let lba = ref 0 in
  while !lba < image_sectors && !problems = [] do
    let count = min chunk (image_sectors - !lba) in
    let sectors = Disk.peek disk ~lba:!lba ~count in
    Array.iteri
      (fun i c ->
        let l = !lba + i in
        let in_write = l >= write_lba && l < write_lba + write_sectors in
        match c with
        | Content.Data _ when in_write -> ()
        | Content.Image x when x = l && not in_write -> ()
        | _ when !problems = [] ->
          note "sector %d holds %s, expected %s" l
            (Format.asprintf "%a" Content.pp c)
            (if in_write then "guest data" else "the image")
        | _ -> ())
      sectors;
    lba := !lba + count
  done;
  List.rev !problems

let run_guest ~scale ~seed ~mode ~obs =
  let sampler = Calibration.create () in
  let t0 = now_s () in
  let trace, metrics =
    match (mode, obs) with
    | Traced, Some o -> (Some o.trace, Some o.metrics)
    | _ -> (None, None)
  in
  let env =
    Stacks.make_env ~seed ~image_gb:(guest_image_gb scale) ?trace ?metrics ()
  in
  let m = Stacks.machine env ~name:"guest" () in
  let t_built = now_s () in
  Calibration.start sampler;
  let w_built = alloc_words () in
  let image_sectors = env.Stacks.image_sectors in
  let write_lba = image_sectors * 3 / 4 and write_sectors = fio_bytes / 512 in
  let result = ref None and problems = ref [] in
  Stacks.run env (fun () ->
      let rt, vmm = Stacks.bmcast env m () in
      let os_start_s = clock_s () in
      Os.boot rt ();
      let boot_s = clock_s () in
      let r1 = Fio.seq_read rt ~start_lba:(image_sectors / 2) () in
      let w1 = Fio.seq_write rt ~start_lba:write_lba () in
      let io = Ioping.run rt () in
      Vmm.wait_devirtualized vmm;
      let devirt_s = Time.to_float_s (Option.get (Vmm.devirtualized_at vmm)) in
      if mode = Check then
        problems :=
          layout_problems m.Machine.disk ~image_sectors ~write_lba
            ~write_sectors;
      let r2 = Fio.seq_read rt () in
      let w2 = Fio.seq_write rt ~start_lba:(1024 * 2048) () in
      let pct p = Stats.Histogram.percentile io.Ioping.latencies p in
      result :=
        Some
          { image_sectors;
            os_boot_s = boot_s -. os_start_s;
            boot_s;
            devirt_s;
            deploy_read_mb_s = r1.Fio.throughput_mb_s;
            deploy_write_mb_s = w1.Fio.throughput_mb_s;
            io_p50_ms = pct 50.0;
            io_p90_ms = pct 90.0;
            devirt_read_mb_s = r2.Fio.throughput_mb_s;
            devirt_write_mb_s = w2.Fio.throughput_mb_s;
            totals = Vmm.totals vmm;
            served_bytes = Vblade.bytes_served env.Stacks.vblade });
  let host = host_of ~t0 ~t_built ~w_built sampler in
  match !result with
  | None -> failwith "guest_io: the scenario ended before its last step"
  | Some g ->
    (* One machine: its single sample is both percentiles. *)
    ( { events = Sim.events_executed env.Stacks.sim;
        virt =
          virt_metrics ~ttfb:(g.boot_s, g.boot_s) ~ttdv:(g.devirt_s, g.devirt_s)
            ~egress_bytes:g.served_bytes;
        fleet = None;
        guest = Some g;
        problems = !problems },
      host )

(* [obs] is only read in [Traced] mode, which makes a fresh one when
   the caller brings none. [golden] replaces the recorded digests (the
   smoke test tampers with it to see the check fail). *)
let run ?(scale = Full) ?(golden = golden_digest) ?obs w ~seed ~mode =
  let obs =
    match (mode, obs) with Traced, None -> Some (make_obs ()) | _ -> obs
  in
  match fleet_shape scale w with
  | Some shape -> run_fleet ~golden:(golden scale w) shape ~seed ~mode ~obs
  | None -> run_guest ~scale ~seed ~mode ~obs
