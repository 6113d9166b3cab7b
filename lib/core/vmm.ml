module Sim = Bmcast_engine.Sim
module Time = Bmcast_engine.Time
module Prng = Bmcast_engine.Prng
module Signal = Bmcast_engine.Signal
module Cpu = Bmcast_hw.Cpu
module Tlb = Bmcast_hw.Tlb
module Firmware = Bmcast_hw.Firmware
module Memmap = Bmcast_hw.Memmap
module Pci = Bmcast_hw.Pci
module Content = Bmcast_storage.Content
module Packet = Bmcast_net.Packet
module Fabric = Bmcast_net.Fabric
module Nic = Bmcast_net.Nic
module Mailbox = Bmcast_engine.Mailbox
module Ring = Bmcast_engine.Ring
module Machine = Bmcast_platform.Machine
module Runtime = Bmcast_platform.Runtime
module Cpu_model = Bmcast_platform.Cpu_model
module Aoe = Bmcast_proto.Aoe
module Aoe_client = Bmcast_proto.Aoe_client
module Trace = Bmcast_obs.Trace
module Metrics = Bmcast_obs.Metrics

(* The VMM binary fetched over PXE ("we minimize the VMM size as much as
   possible", §3.1; BitVisor-based prototype is ~27 KLoC). *)
let vmm_image_bytes = 2 * 1024 * 1024

type transport =
  | Dedicated of Vmm_netdrv.t  (* own NIC, polling driver *)
  | Shared of Nic_mediator.t  (* one NIC shared with the guest (6) *)

(* 4.3 residual CPUID exits of a resident (no-VMXOFF) VMM, accounted
   lazily: keeping a ~90 s exponential timer alive per idle machine
   forever means a 10,000-guest fleet pays 10,000 eternal scheduler
   events for accounting nobody reads between samples. Instead the
   devirtualized VMM remembers the private interarrival PRNG and the
   next exit time, and catches the exit counters up on demand
   ([totals]/[shutdown]). The stream comes from the same [Prng.split]
   draw the eager timer used, so the counts are identical. *)
type residual = { r_prng : Prng.t; mutable r_next : Time.t }

type t = {
  machine : Machine.t;
  params : Params.t;
  mediator : Mediator.t;
  aoe : Aoe_client.t;
  transport : transport;
  cpu_model : Cpu_model.t;
  bitmap : Bitmap.t;
  mutable background : Background_copy.t option;
  deferral : t option ref;
      (* the VMM as the multicast deferral daemon sees it; see [boot] *)
  mutable phase : Runtime.phase;
  mutable devirtualized_at : Time.t option;
  deployed : Signal.Latch.t;
  devirt_done : Signal.Latch.t;
  release_memory : bool;
  hide_mgmt_nic : bool;
  boot_prefetch : (int * int) list;
  resume : bool;
  vmxoff : [ `Resident | `Guest_module ];
  mutable residual : residual option;
  mutable shut_down : bool;
  mutable mcast_filled_bytes : int;  (* filled from multicast frames *)
  mutable mcast_dups : int;  (* multicast frames carrying nothing new *)
  mutable last_mcast_at : Time.t;
      (* carousel liveness signal; [no_mcast] before the first frame *)
  mutable events : (Time.t * string) list;  (* phase log, newest first *)
}

let no_mcast = min_int
let phase t = t.phase
let cpu_model t = t.cpu_model

let log_event t what =
  t.events <- (Sim.now t.machine.Machine.sim, what) :: t.events;
  let tr = Sim.trace t.machine.Machine.sim in
  if Trace.on tr ~cat:"vmm" then Trace.instant tr ~cat:"vmm" what

(* Boot-stage pipeline spans (category "boot", tagged with the machine
   name) — the input of [Bmcast_obs.Analytics]. The stages tile the
   boot timeline sequentially, so per machine they sum to the boot
   total; see DESIGN.md §10. *)

let stage_gauge m stage =
  Metrics.gauge m ~labels:[ ("stage", stage) ] "fleet.stage"

let stage_next = function
  | "vmm_init" -> Some "discover"
  | "discover" -> Some "copy"
  | "copy" -> Some "devirt"
  | _ -> None

(* Stage-occupancy accounting rides the same transition points as the
   spans: ending stage S moves the machine into the next stage's gauge
   (occupancy is how many machines currently sit in each stage), and
   ending "devirt" counts the machine as fully provisioned. [boot]
   seeds the pipeline by bumping the "vmm_init" gauge. *)
let stage_span sim ~machine stage ~ts =
  let tr = Sim.trace sim in
  if Trace.on tr ~cat:"boot" then
    Trace.complete tr ~cat:"boot"
      ~args:[ ("m", Trace.Str machine.Machine.name) ]
      stage ~ts;
  let m = Sim.metrics sim in
  if Metrics.enabled m then begin
    Metrics.incr ~by:(-1.0) (stage_gauge m stage);
    match stage_next stage with
    | Some next -> Metrics.incr (stage_gauge m next)
    | None -> Metrics.incr (Metrics.counter m "fleet.devirtualized")
  end

let stage_enter sim stage =
  let m = Sim.metrics sim in
  if Metrics.enabled m then Metrics.incr (stage_gauge m stage)

let events t = List.rev t.events

let bitmap t = t.bitmap
let aoe_client t = t.aoe
let wait_deployed t = Signal.Latch.wait t.deployed
let wait_devirtualized t = Signal.Latch.wait t.devirt_done
let devirtualized_at t = t.devirtualized_at

let progress t =
  float_of_int (Bitmap.filled_count t.bitmap)
  /. float_of_int t.params.Params.image_sectors

let guest_io_rate t = Mediator.guest_io_rate t.mediator

(* §3.4: nested paging is turned off per-CPU; no TLB-shootdown IPIs are
   needed because the identity mapping never changed. *)
let nested_paging_off_per_cpu = Time.us 8

let devirtualize t =
  let devirt_started = Sim.now t.machine.Machine.sim in
  let cores = Cpu.num_cores t.machine.Machine.cpu in
  for core = 0 to cores - 1 do
    ignore core;
    Sim.sleep nested_paging_off_per_cpu;
    Cpu.record_exit t.machine.Machine.cpu Cpu.Control_reg
      ~cost:t.params.Params.exit_cost
  done;
  Mediator.devirtualize t.mediator;
  (match t.transport with
  | Shared m -> Nic_mediator.devirtualize m
  | Dedicated d ->
    (* Drain in-flight AoE commands (e.g. a boot prefetch racing the
       end of the background copy) before parking the polling driver —
       stopping it with a response outstanding would strand the
       requester in retransmission. Then stop the poll loop: an idle
       devirtualized machine must cost the scheduler nothing. *)
    let rec drain () =
      if Aoe_client.pending_count t.aoe > 0 then begin
        Sim.sleep t.params.Params.poll_interval;
        drain ()
      end
    in
    drain ();
    Vmm_netdrv.stop d);
  Cpu_model.clear t.cpu_model;
  t.deferral := None;
  if t.release_memory then Memmap.release_vmm t.machine.Machine.memmap;
  (if t.hide_mgmt_nic then
     (* §4.3: keep the management NIC invisible; the VMM stays resident
        as a config-space filter (negligible cost), so we do not model a
        full VMXOFF in this mode. *)
     Pci.hide t.machine.Machine.pci { Pci.bus = 0; dev = 4; fn = 0 });
  t.phase <- Runtime.Devirtualized;
  t.devirtualized_at <- Some (Sim.now t.machine.Machine.sim);
  log_event t "de-virtualized";
  (* 4.3: without full VMXOFF support the VMM stays resident in VMX
     root mode and the CPUID instruction still unconditionally exits -
     "the intervals of the CPUID exits ranged from a couple of seconds
     to minutes, and their overhead was negligible" (5.5.2). With the
     guest-kernel-module VMXOFF, even those stop. *)
  (match t.vmxoff with
  | `Guest_module -> log_event t "VMXOFF executed (guest module)"
  | `Resident ->
    let prng = Prng.split (Sim.rand t.machine.Machine.sim) in
    t.residual <-
      Some
        { r_prng = prng;
          r_next =
            Time.add
              (Sim.now t.machine.Machine.sim)
              (Time.of_float_s (Prng.exponential prng 90.0)) });
  (let tr = Sim.trace t.machine.Machine.sim in
   if Trace.on tr ~cat:"vmm" then
     Trace.complete tr ~cat:"vmm" "devirtualize" ~ts:devirt_started);
  stage_span t.machine.Machine.sim ~machine:t.machine "devirt"
    ~ts:devirt_started;
  Signal.Latch.set t.devirt_done

(* The bitmap is persisted just past the image, in space no partition
   uses (3.3). *)
let save_region t =
  ( t.params.Params.image_sectors,
    Bitmap.save_sectors ~sectors:t.params.Params.image_sectors )

let deployment t =
  let discover_started = Sim.now t.machine.Machine.sim in
  (* Discover the target and sanity-check the image fits (AoE
     Query-Config). *)
  let capacity = Aoe_client.query_capacity t.aoe in
  if capacity < t.params.Params.image_sectors then
    failwith
      (Printf.sprintf
         "BMcast: target holds %d sectors but the image needs %d" capacity
         t.params.Params.image_sectors);
  log_event t "AoE target discovered";
  (* The VMM cannot multiplex commands until the guest driver has
     initialized the controller. *)
  Mediator.wait_device_ready t.mediator;
  (* Resuming an interrupted deployment: restore the fill bitmap saved
     at shutdown. The read holds the device, so any early guest command
     queues behind it and still sees a correct bitmap. *)
  (if t.resume then begin
     let lba, count = save_region t in
     let data = Content.zeroes ~count in
     Mediator.vmm_read t.mediator ~lba ~count data ~pos:0;
     match Bitmap.load_blob_sectors t.bitmap data with
     | () -> ()
     | exception Invalid_argument _ ->
       (* No (or corrupt) save: deploy from scratch. *)
       ()
   end);
  (* §3.3's optional optimization: eagerly copy the boot working set,
     bypassing moderation (the guest is about to read it anyway). *)
  if t.boot_prefetch <> [] then
    Sim.spawn ~name:"boot-prefetch" (fun () ->
        List.iter
          (fun (lba, count) ->
            let lba = min lba (t.params.Params.image_sectors - 1) in
            let count = min count (t.params.Params.image_sectors - lba) in
            if not (Bitmap.range_filled t.bitmap ~lba ~count) then begin
              let data = Content.Scratch.alloc count in
              Aoe_client.read_into t.aoe ~lba ~count data ~pos:0;
              ignore
                (Mediator.vmm_write_empty t.mediator ~lba ~count data ~pos:0
                  : int);
              Content.Scratch.release data
            end)
          t.boot_prefetch);
  let ops =
    { Background_copy.fetch =
        (fun ~lba ~count dst ->
          Aoe_client.read_into t.aoe ~lba ~count dst ~pos:0);
      write_empty =
        (fun ~lba ~count data ->
          Mediator.vmm_write_empty t.mediator ~lba ~count data ~pos:0);
      guest_io_rate = (fun () -> guest_io_rate t);
      redirect_active = (fun () -> Mediator.redirect_active t.mediator);
      guest_last_lba = (fun () -> Mediator.guest_last_lba t.mediator) }
  in
  stage_span t.machine.Machine.sim ~machine:t.machine "discover"
    ~ts:discover_started;
  log_event t "deployment phase: background copy started";
  let copy_started = Sim.now t.machine.Machine.sim in
  let bg =
    Background_copy.start t.machine.Machine.sim ~params:t.params
      ~bitmap:t.bitmap ~ops ~owner:t.machine.Machine.name ()
  in
  t.background <- Some bg;
  Background_copy.wait_complete bg;
  log_event t "image fully deployed";
  stage_span t.machine.Machine.sim ~machine:t.machine "copy" ~ts:copy_started;
  Signal.Latch.set t.deployed;
  devirtualize t

let boot machine ~params ~server_port ?route ?on_aoe_response ?mcast_group
    ?(release_memory = false) ?(hide_mgmt_nic = false) ?(nic = `Mgmt)
    ?(boot_prefetch = []) ?(resume = false) ?(vmxoff = `Resident) () =
  let boot_started = Sim.now machine.Machine.sim in
  stage_enter machine.Machine.sim "vmm_init";
  (* PXE-load the VMM over the management NIC, then initialize. *)
  Firmware.pxe_load machine.Machine.firmware ~bytes_len:vmm_image_bytes;
  Sim.sleep params.Params.vmm_boot_time;
  Memmap.reserve_vmm machine.Machine.memmap ~size:params.Params.vmm_mem_bytes
  |> ignore;
  let bitmap = Bitmap.create ~sectors:params.Params.image_sectors in
  (* Wire the AoE initiator through a NIC transport: a polling driver on
     a NIC the VMM owns, or the shadow-ring mediator when sharing the
     production NIC with the guest (6). *)
  let client_ref = ref None in
  let deliver pkt =
    match pkt.Packet.payload with
    | Aoe.Frame f ->
      (match on_aoe_response with Some g -> g f.Aoe.hdr | None -> ());
      (match !client_ref with Some c -> Aoe_client.on_frame c f | None -> ());
      true
    | _ -> false
  in
  let transport =
    match nic with
    | (`Mgmt | `Prod) as which ->
      Dedicated
        (Vmm_netdrv.attach machine ~which
           ~poll_interval:params.Params.poll_interval
           ~on_frame:(fun pkt -> ignore (deliver pkt : bool))
           ())
    | `Shared ->
      let m =
        Nic_mediator.attach machine
          ~poll_interval:params.Params.poll_interval
      in
      Nic_mediator.set_vmm_rx m deliver;
      Shared m
  in
  let transport_send ~dst ~size_bytes payload =
    match transport with
    | Dedicated d -> Vmm_netdrv.send d ~dst ~size_bytes payload
    | Shared m -> Nic_mediator.vmm_send m ~dst ~size_bytes payload
  in
  (* Replicated storage tier: [route] picks the target per send (and per
     retransmission, which is what makes replica failover work). *)
  let route = Option.value route ~default:(fun _hdr -> server_port) in
  let aoe =
    Aoe_client.create machine.Machine.sim
      ~send:(fun hdr data ->
        transport_send ~dst:(route hdr)
          ~size_bytes:(Aoe.wire_size ~sectors:(Array.length data))
          (Aoe.Frame { Aoe.hdr; data }))
      ~owner:machine.Machine.name ()
  in
  client_ref := Some aoe;
  let mediator =
    match machine.Machine.controller with
    | Machine.Ahci a -> Ahci_mediator.attach machine a ~aoe ~bitmap ~params
    | Machine.Ide i -> Ide_mediator.attach machine i ~aoe ~bitmap ~params
  in
  (* Shield the bitmap-save region from the guest (3.3). *)
  Mediator.set_protected_region mediator ~lba:params.Params.image_sectors
    ~count:(Bitmap.save_sectors ~sectors:params.Params.image_sectors);
  let cpu_model =
    Cpu_model.create ~tlb_mode:Tlb.Nested_paging
      ~steal:params.Params.deploy_steal ~exit_overhead:0.0
  in
  let t =
    { machine;
      params;
      mediator;
      aoe;
      transport;
      cpu_model;
      bitmap;
      background = None;
      deferral = ref None;
      phase = Runtime.Deploying;
      devirtualized_at = None;
      deployed = Signal.Latch.create ();
      devirt_done = Signal.Latch.create ();
      release_memory;
      hide_mgmt_nic;
      boot_prefetch;
      resume;
      vmxoff;
      residual = None;
      shut_down = false;
      mcast_filled_bytes = 0;
      mcast_dups = 0;
      last_mcast_at = no_mcast;
      events = [] }
  in
  log_event t (if resume then "VMM booted (resuming)" else "VMM booted");
  (* Resilience policy: a deployment must survive storage-server crashes
     and sustained network faults, so an exhausted AoE retry budget
     escalates to keep-trying (capped backoff) rather than raising a
     timeout into the guest's I/O path — the guest just sees a slow
     disk until the target answers again. The first escalation is
     logged so operators can spot the outage in the event trace. *)
  let escalation_logged = ref false in
  Aoe_client.set_escalation aoe (fun ~attempts:_ _hdr ->
      if not !escalation_logged then begin
        escalation_logged := true;
        log_event t "AoE target unresponsive: escalating retries"
      end;
      `Retry);
  (* Multicast deployment path: join the fabric group the storage tier's
     carousel streams hot boot blocks to, and turn unsolicited frames
     into copy-on-read fills. The subscription handler runs in the NIC
     rx path, so it only classifies and copies: frames covering nothing
     empty count as duplicates; the rest are copied off the shared
     (GC-owned, never-released) payload into a scratch buffer and queued
     for the fill process, which writes still-empty sectors through the
     mediator — the same atomic emptiness re-check the background
     writer uses, so a racing guest write always wins. *)
  (match mcast_group with
  | None -> ()
  | Some group ->
    let nic_port =
      match nic with
      | `Mgmt -> Nic.port machine.Machine.mgmt_nic
      | `Prod | `Shared -> Nic.port machine.Machine.prod_nic
    in
    Fabric.mcast_join nic_port ~group;
    (* A queued fill is its copy (one sector per element) in [fifo] and
       its LBA at the same place in [fifo_lbas]: no tuple per frame. *)
    let fifo = Mailbox.create () and fifo_lbas = Ring.create () in
    Aoe_client.subscribe_mcast aoe (fun ~lba ~count data ->
        if lba >= 0 && count > 0 && lba + count <= params.Params.image_sectors
        then begin
          t.last_mcast_at <- Sim.now machine.Machine.sim;
          if Bitmap.range_filled bitmap ~lba ~count then
            t.mcast_dups <- t.mcast_dups + 1
          else begin
            let copy = Content.Scratch.alloc count in
            Content.blit data 0 copy 0 count;
            Ring.push fifo_lbas lba;
            ignore (Mailbox.try_send fifo copy : bool)
          end
        end);
    Sim.spawn ~name:"bmcast-mcast-fill" (fun () ->
        let rec loop () =
          let data = Mailbox.recv fifo in
          let lba = Ring.pop fifo_lbas and count = Array.length data in
          if (not t.shut_down) && not (Bitmap.is_complete t.bitmap) then begin
            let wrote =
              Mediator.vmm_write_empty t.mediator ~lba ~count data ~pos:0
            in
            t.mcast_filled_bytes <- t.mcast_filled_bytes + (wrote * 512)
          end;
          Content.Scratch.release data;
          loop ()
        in
        loop ());
    (* While the carousel is live — a frame within the last [quiet]
       window — the background copy defers to it: one multicast stream
       is filling every subscriber, so unicast fetches of the same
       blocks would only congest the storage tier. When the carousel
       goes quiet (passes exhausted, or its vblade crashed) the copy
       resumes and mops up whatever multicast missed; if frames return,
       it pauses again. Copy-on-read is untouched either way — sectors
       the guest demands right now still arrive over unicast.

       The daemon keeps firing until the run ends, so it reads the VMM
       through [t.deferral], which [devirtualize] empties: a
       de-virtualized VMM must be collectable. Its ticks stay queued, so
       the event stream is the same as if it held [t] for good. *)
    let quiet = Time.ms 600 in
    let sim = machine.Machine.sim in
    let deferral = t.deferral in
    deferral := Some t;
    ignore
      (Sim.every sim ~daemon:true (Time.ms 200) (fun () ->
           match !deferral with
           | None -> ()
           | Some t -> (
             match t.background with
             | None -> ()
             | Some bg ->
               let live =
                 (not (Bitmap.is_complete t.bitmap))
                 && t.last_mcast_at <> no_mcast
                 && Sim.now sim - t.last_mcast_at < quiet
               in
               if live then begin
                 if not (Background_copy.is_paused bg) then
                   Background_copy.pause bg
               end
               else if Background_copy.is_paused bg then
                 Background_copy.resume bg))
        : unit -> unit));
  stage_span machine.Machine.sim ~machine "vmm_init" ~ts:boot_started;
  Sim.spawn ~name:"bmcast-deployment" (fun () -> deployment t);
  t

(* 3.3: "In case of shutdown and reboot, the VMM saves the bitmap on
   the local disk" - stop the copy threads, persist the bitmap into the
   protected region, and tear the VMM down cleanly so a later
   [boot ~resume:true] on the same machine picks up where we left. *)
let sync_residual t =
  match t.residual with
  | None -> ()
  | Some r ->
    let now = Sim.now t.machine.Machine.sim in
    while r.r_next <= now do
      Cpu.record_exit t.machine.Machine.cpu Cpu.Cpuid
        ~cost:t.params.Params.exit_cost;
      r.r_next <-
        Time.add r.r_next (Time.of_float_s (Prng.exponential r.r_prng 90.0))
    done

let shutdown t =
  if t.shut_down then invalid_arg "Vmm.shutdown: already shut down";
  sync_residual t;
  t.residual <- None;
  t.deferral := None;
  (match t.background with
  | Some bg -> Background_copy.stop bg
  | None -> ());
  let lba, count = save_region t in
  Mediator.vmm_write t.mediator ~lba ~count (Bitmap.to_blob_sectors t.bitmap);
  Mediator.devirtualize t.mediator;
  (match t.transport with
  | Dedicated d -> Vmm_netdrv.stop d
  | Shared m -> Nic_mediator.devirtualize m);
  (* Power-cycle semantics: the memory reservation does not survive. *)
  Memmap.release_vmm t.machine.Machine.memmap;
  log_event t "VMM shut down (bitmap saved)";
  t.shut_down <- true

type totals = {
  redirects : int;
  redirected_bytes : int;
  multiplexed_ops : int;
  queued_commands : int;
  background_bytes : int;
  moderation_suspensions : int;
  vm_exits : int;
  aoe_retransmits : int;
  aoe_escalations : int;
  fetch_failures : int;
  mcast_bytes : int;
  mcast_dups : int;
}

let totals t =
  sync_residual t;
  let s = Mediator.stats t.mediator in
  { redirects = s.Mediator.redirects;
    redirected_bytes = s.Mediator.redirected_sectors * 512;
    multiplexed_ops = s.Mediator.multiplexed_ops;
    queued_commands = s.Mediator.queued_commands;
    background_bytes =
      (match t.background with
      | Some bg -> Background_copy.bytes_written bg
      | None -> 0);
    moderation_suspensions =
      (match t.background with
      | Some bg -> Background_copy.chunks_suspended bg
      | None -> 0);
    vm_exits = Cpu.total_exits t.machine.Machine.cpu;
    aoe_retransmits = Aoe_client.retransmits t.aoe;
    aoe_escalations = Aoe_client.escalations t.aoe;
    fetch_failures =
      (match t.background with
      | Some bg -> Background_copy.fetch_failures bg
      | None -> 0);
    mcast_bytes = t.mcast_filled_bytes;
    mcast_dups = t.mcast_dups }
