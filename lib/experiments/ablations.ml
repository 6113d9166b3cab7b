module Sim = Bmcast_engine.Sim
module Time = Bmcast_engine.Time
module Signal = Bmcast_engine.Signal
module Prng = Bmcast_engine.Prng
module Content = Bmcast_storage.Content
module Disk = Bmcast_storage.Disk
module Fabric = Bmcast_net.Fabric
module Packet = Bmcast_net.Packet
module Aoe = Bmcast_proto.Aoe
module Aoe_client = Bmcast_proto.Aoe_client
module Vblade = Bmcast_proto.Vblade
module Machine = Bmcast_platform.Machine
module Os = Bmcast_guest.Os
module Image_copy = Bmcast_baselines.Image_copy
module Vmm = Bmcast_core.Vmm

(* A fabric-attached AoE client reading bulk data from a vblade. *)
let aoe_rig ?(mtu = 9000) ?(loss = 0.0) ?(workers = 8) ?timeout
    ?max_read_sectors () =
  let sim = Sim.create () in
  let fabric = Fabric.create sim ~mtu ~loss_rate:loss () in
  let disk = Disk.create sim Disk.hdd_constellation2 in
  Disk.fill_with_image disk;
  let vblade = Vblade.create sim ~fabric ~name:"vblade" ~disk ~workers () in
  let client_ref = ref None in
  let port =
    Fabric.attach fabric ~name:"client" (fun pkt ->
        match pkt.Packet.payload with
        | Aoe.Frame f -> Option.iter (fun c -> Aoe_client.on_frame c f) !client_ref
        | _ -> ())
  in
  let client =
    Aoe_client.create sim
      ~send:(fun hdr data -> Aoe.send port ~dst:(Vblade.port_id vblade) hdr data)
      ~mtu ?timeout ?max_read_sectors ()
  in
  client_ref := Some client;
  (sim, fabric, client)

(* Aggregate read throughput of [streams] concurrent 512 KB streams. *)
let bulk_read_rate ?mtu ?loss ?workers ?(timeout = Time.ms 500)
    ?max_read_sectors ~total_mb () =
  let sim, _, client =
    aoe_rig ?mtu ?loss ?workers ~timeout ?max_read_sectors ()
  in
  let elapsed = ref 0.0 in
  Sim.spawn_at sim Time.zero (fun () ->
      let streams = 4 in
      let per_stream = total_mb / streams in
      let done_count = ref 0 in
      let all_done = Signal.Latch.create () in
      let t0 = Sim.clock () in
      for s = 0 to streams - 1 do
        Sim.spawn (fun () ->
            for i = 0 to per_stream - 1 do
              ignore
                (Aoe_client.read client
                   ~lba:(((s * per_stream) + i) * 2048)
                   ~count:2048
                  : Content.t array)
            done;
            incr done_count;
            if !done_count = streams then Signal.Latch.set all_done)
      done;
      Signal.Latch.wait all_done;
      elapsed := Time.to_float_s (Time.diff (Sim.clock ()) t0));
  Sim.run sim;
  (float_of_int total_mb /. !elapsed, Aoe_client.retransmits client)

let run_vblade_pool () =
  Report.section "Ablation: vblade thread pool (4.2)";
  List.iter
    (fun workers ->
      let rate, _ = bulk_read_rate ~workers ~total_mb:128 () in
      Report.row
        ~label:(Printf.sprintf "%d worker(s)" workers)
        ~units:"MB/s" rate)
    [ 1; 2; 4; 8 ]

let run_jumbo_frames () =
  Report.section "Ablation: jumbo frames (4.2)";
  let jumbo, _ = bulk_read_rate ~mtu:9000 ~total_mb:128 () in
  let standard, _ = bulk_read_rate ~mtu:1500 ~total_mb:128 () in
  Report.row ~label:"MTU 9000" ~units:"MB/s" jumbo;
  Report.row ~label:"MTU 1500" ~units:"MB/s" standard;
  Report.row ~label:"jumbo gain" ~units:"x" (jumbo /. standard)

let run_retransmission () =
  Report.section "Ablation: retransmission under packet loss (4.2)";
  List.iter
    (fun loss ->
      let rate, retrans =
        bulk_read_rate ~loss ~timeout:(Time.ms 50) ~max_read_sectors:128
          ~total_mb:64 ()
      in
      Report.note "loss %.1f%%: goodput %.1f MB/s, %d retransmissions"
        (loss *. 100.0) rate retrans)
    [ 0.0; 0.001; 0.01; 0.05 ]

let run_boot_prefetch () =
  Report.section "Ablation: boot working-set prefetch (3.3 optimization)";
  let boot_time ?disk_profile ~prefetch () =
    let env = Stacks.make_env ~image_gb:32 ?disk_profile () in
    let m = Stacks.machine env ~name:"node" () in
    let out = ref 0.0 in
    Stacks.run env (fun () ->
        let boot_prefetch =
          if prefetch then begin
            (* The provider profiles the image's boot trace offline and
               ships it sorted and coalesced, so the prefetcher streams
               large sequential ranges instead of replaying the guest's
               seek pattern. *)
            let prng = Prng.split (Sim.rand env.Stacks.sim) in
            let ranges =
              List.sort compare (Os.trace prng Os.default_profile)
            in
            let rec coalesce = function
              | (l1, c1) :: (l2, c2) :: rest when l2 <= l1 + c1 + 2048 ->
                coalesce ((l1, max c1 (l2 + c2 - l1)) :: rest)
              | r :: rest -> r :: coalesce rest
              | [] -> []
            in
            coalesce ranges
          end
          else []
        in
        let params = Stacks.bmcast_params env in
        let vmm =
          Vmm.boot m ~params ~server_port:(Vblade.port_id env.Stacks.vblade)
            ~boot_prefetch ()
        in
        ignore vmm;
        let blk = Bmcast_guest.Block_io.attach m in
        let rt =
          { Bmcast_platform.Runtime.label = "bmcast";
            machine = m;
            block_read =
              (fun ~lba ~count dst ->
                Bmcast_guest.Block_io.read_into blk ~lba ~count dst);
            block_write =
              (fun ~lba ~count data ->
                Bmcast_guest.Block_io.write blk ~lba ~count data);
            cpu = Vmm.cpu_model vmm;
            phase = (fun () -> Vmm.phase vmm) }
        in
        let t0 = Sim.clock () in
        Os.boot rt ();
        out := Time.to_float_s (Time.diff (Sim.clock ()) t0));
    !out
  in
  let without = boot_time ~prefetch:false () in
  let with_pf = boot_time ~prefetch:true () in
  Report.row ~label:"OS boot without prefetch (HDD)" ~units:"s" without;
  Report.row ~label:"OS boot with prefetch (HDD)" ~units:"s" with_pf;
  Report.note
    "On the HDD the prefetch LOSES: its writes occupy the spindle the guest's";
  Report.note
    "reads need, and a scattered boot working set is rotation-bound either way";
  Report.note
    "- evidence for the paper's caution in making this optimization optional.";
  let ssd_without = boot_time ~disk_profile:Disk.ssd_sata ~prefetch:false () in
  let ssd_with = boot_time ~disk_profile:Disk.ssd_sata ~prefetch:true () in
  Report.row ~label:"OS boot without prefetch (SSD)" ~units:"s" ssd_without;
  Report.row ~label:"OS boot with prefetch (SSD)" ~units:"s" ssd_with

let run_shared_nic () =
  Report.section "Ablation: dedicated vs shared NIC (6)";
  (* A peer streams ~108 MB/s of inbound guest traffic while the
     deployment fetches the image. Dedicated: the streams arrive on
     different ports. Shared: both squeeze through one GbE port via the
     shadow-ring NIC mediator, so the deployment and the guest contend -
     the reason the paper prefers a dedicated NIC. *)
  let contended ~nic =
    let env = Stacks.make_env ~image_gb:4 ~vblade_ram_cache:true () in
    let m = Stacks.machine env ~name:"node" () in
    let deploy_rate = ref 0.0 and guest_goodput = ref 0.0 in
    Stacks.run env (fun () ->
        let params = Stacks.bmcast_params env in
        let vmm =
          Vmm.boot m ~params ~server_port:(Vblade.port_id env.Stacks.vblade)
            ~nic ()
        in
        let _blk = Bmcast_guest.Block_io.attach m in
        let pn = m.Machine.prod_nic in
        let nic_port_id = Fabric.port_id (Bmcast_net.Nic.port pn) in
        (* The guest's NIC driver: publish RX buffers and recycle them.
           In shared mode every register access below is mediated. *)
        let mm = m.Machine.mmio in
        let reg off = Bmcast_hw.Mmio.read mm (Machine.prod_nic_base + off) in
        let wreg off v = Bmcast_hw.Mmio.write mm (Machine.prod_nic_base + off) v in
        let guest_rx = ref 0 in
        wreg Bmcast_net.Nic.Regs.rdt 255;
        Sim.spawn ~name:"guest-rx" (fun () ->
            let ring = Bmcast_net.Nic.default_rx_ring pn in
            let idx = ref 0 and rdt = ref 255 in
            let rec poll () =
              let rdh = reg Bmcast_net.Nic.Regs.rdh in
              while !idx <> rdh do
                (let f = Bmcast_net.Nic.rx_desc pn ~ring ~idx:!idx in
                 if f != Bmcast_net.Nic.no_frame then
                   guest_rx := !guest_rx + f.Packet.size_bytes);
                Bmcast_net.Nic.clear_rx_desc pn ~ring ~idx:!idx;
                idx := (!idx + 1) mod 256;
                rdt := (!rdt + 1) mod 256;
                wreg Bmcast_net.Nic.Regs.rdt !rdt
              done;
              Sim.sleep (Time.us 50);
              poll ()
            in
            poll ());
        (* Peer flooding inbound guest traffic at ~108 MB/s. *)
        let peer = Fabric.attach env.Stacks.fabric ~name:"peer" (fun _ -> ()) in
        Sim.spawn ~name:"peer-flood" (fun () ->
            let rec flood () =
              Fabric.send peer ~dst:nic_port_id ~size_bytes:9038
                (Packet.Raw "g");
              Sim.sleep (Time.us 83);
              flood ()
            in
            flood ());
        let t0 = Sim.clock () in
        Vmm.wait_deployed vmm;
        let elapsed = Time.to_float_s (Time.diff (Sim.clock ()) t0) in
        deploy_rate := 4.0 *. 1024.0 /. elapsed;
        guest_goodput := float_of_int !guest_rx /. elapsed /. 1e6);
    (!deploy_rate, !guest_goodput)
  in
  let ded_rate, ded_guest = contended ~nic:`Mgmt in
  let sh_rate, sh_guest = contended ~nic:`Shared in
  Report.row ~label:"deployment rate, dedicated NIC" ~units:"MB/s" ded_rate;
  Report.row ~label:"guest inbound goodput, dedicated" ~units:"MB/s" ded_guest;
  Report.row ~label:"deployment rate, shared NIC" ~units:"MB/s" sh_rate;
  Report.row ~label:"guest inbound goodput, shared" ~units:"MB/s" sh_guest

let run_ssd () =
  Report.section "Ablation: SSD local disks (2: 'using SSDs may reduce copy time')";
  let copy_time profile =
    let env = Stacks.make_env ~image_gb:32 ~disk_profile:profile () in
    let m = Stacks.machine env ~name:"node" () in
    let out = ref 0.0 in
    Stacks.run env (fun () ->
        let clients =
          [ Stacks.iscsi_client env ~name:"c0"; Stacks.iscsi_client env ~name:"c1" ]
        in
        let b =
          Image_copy.deploy m ~servers:clients
            ~image_sectors:env.Stacks.image_sectors
        in
        out := Time.to_float_s b.Image_copy.transfer);
    !out
  in
  let hdd = copy_time Disk.hdd_constellation2 in
  let ssd = copy_time Disk.ssd_sata in
  Report.row ~label:"image-copy transfer, HDD" ~units:"s" hdd;
  Report.row ~label:"image-copy transfer, SSD" ~units:"s" ssd;
  Report.note
    "SSD saves only %.0f%%: the GbE wire, not the disk, bounds image copying."
    ((hdd -. ssd) /. hdd *. 100.0)

let run_os_transparency () =
  Report.section
    "Ablation: OS transparency - Windows deploys unmodified (4.3)";
  let boot ~profile ~image_gb =
    let env = Stacks.make_env ~image_gb () in
    let m = Stacks.machine env ~name:"node" () in
    let out = ref 0.0 in
    Stacks.run env (fun () ->
        let rt, _vmm = Stacks.bmcast env m () in
        let t0 = Sim.clock () in
        Os.boot rt ~profile ();
        out := Time.to_float_s (Time.diff (Sim.clock ()) t0));
    !out
  in
  let ubuntu = boot ~profile:Os.ubuntu_1404 ~image_gb:32 in
  (* The paper's Windows reference image is EC2's 30 GB default (2). *)
  let windows = boot ~profile:Os.windows_server_2008 ~image_gb:30 in
  Report.row ~label:"Ubuntu 14.04 boot on BMcast (32 GB)" ~units:"s" ubuntu;
  Report.row ~label:"Windows Server 2008 boot on BMcast (30 GB)" ~units:"s"
    windows;
  Report.note
    "Both guests ran the same unmodified driver stack; only their boot";
  Report.note "I/O profiles differ - the mediators absorbed everything else."

let run () =
  run_vblade_pool ();
  run_jumbo_frames ();
  run_retransmission ();
  run_boot_prefetch ();
  run_shared_nic ();
  run_ssd ();
  run_os_transparency ()
