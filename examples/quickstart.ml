(* Quickstart: stream-deploy one bare-metal instance and watch it become
   raw hardware.

     dune exec examples/quickstart.exe

   The example builds a simulated testbed (gigabit fabric + AoE storage
   server holding a golden image), powers a machine through the four
   deployment phases of the paper's Figure 1, and verifies at the end
   that the local disk is byte-identical to the server image wherever
   the guest did not write. *)

module Sim = Bmcast_engine.Sim
module Time = Bmcast_engine.Time
module Content = Bmcast_storage.Content
module Disk = Bmcast_storage.Disk
module Machine = Bmcast_platform.Machine
module Runtime = Bmcast_platform.Runtime
module Os = Bmcast_guest.Os
module Vmm = Bmcast_core.Vmm
module Stacks = Bmcast_experiments.Stacks

let image_gb = 2

let () =
  Printf.printf "== BMcast quickstart: deploying a %d GB image ==\n\n" image_gb;
  let env = Stacks.make_env ~image_gb () in
  let machine = Stacks.machine env ~name:"node0" () in
  Stacks.run env (fun () ->
      let t0 = Sim.clock () in
      let say fmt =
        Printf.ksprintf
          (fun s ->
            Printf.printf "[%7.2fs] %s\n%!"
              (Time.to_float_s (Time.diff (Sim.clock ()) t0))
              s)
          fmt
      in
      (* Phase 1: initialization - network-boot the tiny VMM. *)
      let runtime, vmm = Stacks.bmcast env machine () in
      say "VMM booted over PXE; phase = %s"
        (Format.asprintf "%a" Runtime.pp_phase (runtime.Runtime.phase ()));

      (* Phase 2: deployment - the unmodified guest OS boots right away;
         cold reads are served from the server by copy-on-read. *)
      Os.boot runtime ();
      say "guest OS is up and serving (image %.0f%% local so far)"
        (Vmm.progress vmm *. 100.0);

      (* The guest works normally while the background copy fills the
         disk: write some application data... *)
      let app_data = Content.data_sectors ~count:128 in
      runtime.Runtime.block_write ~lba:4096 ~count:128 app_data;
      say "guest wrote 64 KB of application data at LBA 4096";

      (* Phase 3: de-virtualization - wait for the copy to finish. *)
      Vmm.wait_devirtualized vmm;
      say "image fully local; VMM de-virtualized itself; phase = %s"
        (Format.asprintf "%a" Runtime.pp_phase (runtime.Runtime.phase ()));

      (* Phase 4: bare metal - I/O no longer traps. *)
      let traps_before =
        Bmcast_hw.Mmio.trapped_accesses machine.Machine.mmio
      in
      runtime.Runtime.block_read ~lba:0 ~count:64 (Content.zeroes ~count:64);
      let traps_after = Bmcast_hw.Mmio.trapped_accesses machine.Machine.mmio in
      say "a post-devirt read caused %d traps (zero overhead)"
        (traps_after - traps_before);

      (* Verify: disk == image everywhere except the guest's write. *)
      let sectors = env.Stacks.image_sectors in
      let mismatches = ref 0 in
      for lba = 0 to sectors - 1 do
        let expected =
          if lba >= 4096 && lba < 4096 + 128 then app_data.(lba - 4096)
          else Content.image lba
        in
        if not (Content.equal (Disk.sector machine.Machine.disk lba) expected)
        then incr mismatches
      done;
      say "verified %d sectors: %d mismatches" sectors !mismatches;
      let t = Vmm.totals vmm in
      say "copy-on-read moved %.1f MB; background copy moved %.1f MB"
        (float_of_int t.Vmm.redirected_bytes /. 1e6)
        (float_of_int t.Vmm.background_bytes /. 1e6);
      if !mismatches > 0 then exit 1);
  Printf.printf "\nquickstart finished.\n"
