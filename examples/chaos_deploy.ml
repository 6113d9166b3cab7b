(* Chaos deployment: everything that can go wrong, goes wrong.

     dune exec examples/chaos_deploy.exe

   A 128 MB image streams onto a node while
     - the management network drops 2% of all frames, and
     - the node loses power halfway through deployment.

   BMcast's two resilience mechanisms carry the deployment through:
   AoE-level retransmission with exponential backoff hides the frame
   loss, and the persisted copy bitmap (paper section 3.3) lets the
   rebooted VMM resume exactly where the first one stopped — including
   the guest's own writes, which must never be refetched from the
   server. The example exits non-zero if the final disk deviates from
   the golden image anywhere the guest did not write. *)

module Sim = Bmcast_engine.Sim
module Time = Bmcast_engine.Time
module Content = Bmcast_storage.Content
module Disk = Bmcast_storage.Disk
module Fabric = Bmcast_net.Fabric
module Vblade = Bmcast_proto.Vblade
module Machine = Bmcast_platform.Machine
module Block_io = Bmcast_guest.Block_io
module Params = Bmcast_core.Params
module Bitmap = Bmcast_core.Bitmap
module Vmm = Bmcast_core.Vmm

let image_sectors = 128 * 2048 (* 128 MB *)
let loss_rate = 0.02
let guest_lba = 30_000
let guest_count = 256

let () =
  Printf.printf
    "== Chaos deployment: %d MB image, %.0f%% frame loss, mid-flight power \
     cut ==\n\n"
    (image_sectors / 2048) (loss_rate *. 100.0);
  let sim = Sim.create () in
  let fabric = Fabric.create sim ~loss_rate () in
  let profile =
    { Disk.hdd_constellation2 with Disk.capacity_sectors = 512 * 2048 }
  in
  let server_disk = Disk.create sim profile in
  Disk.fill_with_image server_disk;
  let vblade = Vblade.create sim ~fabric ~name:"server" ~disk:server_disk () in
  let machine =
    Machine.create sim ~name:"victim" ~disk_profile:profile ~fabric ()
  in
  let params =
    { (Params.default ~image_sectors) with Params.write_interval = Time.ms 4 }
  in
  let guest_data = Content.data_sectors ~count:guest_count in
  let failed = ref false in
  Sim.spawn_at sim ~name:"chaos" Time.zero (fun () ->
      let t0 = Sim.clock () in
      let say fmt =
        Printf.ksprintf
          (fun s ->
            Printf.printf "[%7.2fs] %s\n%!"
              (Time.to_float_s (Time.diff (Sim.clock ()) t0))
              s)
          fmt
      in
      let vmm1 =
        Vmm.boot machine ~params ~server_port:(Vblade.port_id vblade) ()
      in
      say "VMM up; streaming over a lossy link";
      let blk = Block_io.attach machine in
      ignore (Block_io.read blk ~lba:0 ~count:64 : Content.t array);
      Block_io.write blk ~lba:guest_lba ~count:guest_count guest_data;
      say "guest wrote %d KB of its own data at LBA %d" (guest_count / 2)
        guest_lba;
      while Vmm.progress vmm1 < 0.5 do
        Sim.sleep (Time.ms 100)
      done;
      let fetched_before = Disk.bytes_read server_disk in
      say "power cut at %.0f%% copied (%d MB fetched, %d AoE retransmits \
           so far)"
        (Vmm.progress vmm1 *. 100.0)
        (fetched_before / (1024 * 1024))
        (Vmm.totals vmm1).Vmm.aoe_retransmits;
      Vmm.shutdown vmm1;

      (* Power restored: the fresh VMM finds the persisted bitmap. *)
      let vmm2 =
        Vmm.boot machine ~params ~server_port:(Vblade.port_id vblade)
          ~resume:true ()
      in
      let blk2 = Block_io.attach machine in
      ignore (Block_io.read blk2 ~lba:0 ~count:64 : Content.t array);
      (* The deployment thread restores the bitmap once the guest driver
         has initialized the controller; give it a beat, then report. *)
      Sim.sleep (Time.ms 100);
      say "rebooted; resumed at %.0f%% (bitmap restored from disk)"
        (Vmm.progress vmm2 *. 100.0);
      Vmm.wait_devirtualized vmm2;
      let t = Vmm.totals vmm2 in
      say "deployment complete: copied %d MB after reboot (image is %d MB); \
           %d retransmits in resumed run"
        (t.Vmm.background_bytes / (1024 * 1024))
        (image_sectors / 2048)
        t.Vmm.aoe_retransmits;

      (* Verify: guest data intact, everything else equals the image. *)
      let sector_ok i =
        let got = Disk.sector machine.Machine.disk i in
        let want =
          if i >= guest_lba && i < guest_lba + guest_count then
            guest_data.(i - guest_lba)
          else (Content.image_sectors ~lba:i ~count:1).(0)
        in
        Content.equal got want
      in
      let bad = ref 0 in
      for i = 0 to image_sectors - 1 do
        if not (sector_ok i) then incr bad
      done;
      if !bad = 0 then
        say "verified all %d sectors: guest writes intact, rest matches the \
             golden image"
          image_sectors
      else begin
        say "CONSISTENCY FAILURE: %d sectors wrong" !bad;
        failed := true
      end;
      (* The resumed run must only copy what the first run left behind
         (we cut power at ~50%), not the whole image again. Server-side
         bytes_read is inflated by retransmission, so judge by what the
         resumed VMM actually wrote locally. *)
      if t.Vmm.background_bytes > image_sectors * 512 * 3 / 4 then begin
        say "RESUME FAILURE: recopied most of the image after reboot";
        failed := true
      end);
  Sim.run ~until:(Time.minutes 30) sim;
  if !failed then exit 1;
  Printf.printf
    "\nsurvived %.0f%% frame loss and a mid-deployment power cut with zero \
     data loss\n"
    (loss_rate *. 100.0)
