(* Tests for the comparison stacks: KVM, image copying, network boot. *)

module Sim = Bmcast_engine.Sim
module Time = Bmcast_engine.Time
module Cpu = Bmcast_hw.Cpu
module Tlb = Bmcast_hw.Tlb
module Content = Bmcast_storage.Content
module Disk = Bmcast_storage.Disk
module Ib = Bmcast_net.Ib
module Machine = Bmcast_platform.Machine
module Runtime = Bmcast_platform.Runtime
module Cpu_model = Bmcast_platform.Cpu_model
module Kvm = Bmcast_baselines.Kvm
module Image_copy = Bmcast_baselines.Image_copy
module Net_boot = Bmcast_baselines.Net_boot
module Stacks = Bmcast_experiments.Stacks

let check_bool = Alcotest.(check bool)

let in_env ?(image_gb = 2) f =
  let env = Stacks.make_env ~image_gb () in
  let out = ref None in
  Stacks.run env (fun () -> out := Some (f env));
  Option.get !out

(* --- KVM --- *)

let test_kvm_taxes_installed () =
  ignore
    (in_env (fun env ->
         let m = Stacks.machine env ~name:"kvm" () in
         let rt, kvm = Stacks.kvm_local env m in
         let cm = Kvm.cpu_model kvm in
         check_bool "nested+host tlb" true
           (cm.Cpu_model.tlb_mode = Tlb.Nested_paging_host);
         check_bool "yield cost" true (cm.Cpu_model.yield_cost > 0);
         check_bool "phase" true (rt.Runtime.phase () = Runtime.Kvm)))

let test_kvm_virtio_slower_than_bare () =
  let bare, kvm =
    in_env (fun env ->
        let mb = Stacks.machine env ~name:"bare" () in
        let bare_rt = Stacks.bare env mb in
        let mk = Stacks.machine env ~name:"kvm" () in
        let kvm_rt, _ = Stacks.kvm_local env mk in
        let time rt =
          let buf = Content.zeroes ~count:2048 in
          let t0 = Sim.clock () in
          for i = 0 to 19 do
            rt.Runtime.block_read ~lba:(i * 2048) ~count:2048 buf
          done;
          Time.diff (Sim.clock ()) t0
        in
        (time bare_rt, time kvm_rt))
  in
  check_bool "virtio adds per-op cost" true (kvm > bare)

let test_kvm_remote_backend_reads_server () =
  ignore
    (in_env (fun env ->
         let m = Stacks.machine env ~name:"kvm" () in
         let rt, _ = Stacks.kvm_remote env m `Iscsi in
         let data = Content.zeroes ~count:8 in
         rt.Runtime.block_read ~lba:777 ~count:8 data;
         check_bool "image data over iscsi" true
           (Array.for_all2 Content.equal data
              (Content.image_sectors ~lba:777 ~count:8));
         (* The local disk stays untouched: no deployment happened. *)
         check_bool "local disk empty" true
           (Content.equal (Disk.sector m.Machine.disk 777) Content.zero)))

let test_kvm_host_steals_cores () =
  ignore
    (in_env (fun env ->
         let m = Stacks.machine env ~name:"kvm" () in
         let _rt, _kvm = Stacks.kvm_local env m in
         (* Host scheduler interference stalls long CPU runs. *)
         let t0 = Sim.clock () in
         Cpu.run (Cpu.core m.Machine.cpu 0) (Time.s 1);
         let elapsed = Time.diff (Sim.clock ()) t0 in
         check_bool
           (Printf.sprintf "stall > 0 (elapsed %s)" (Time.to_string elapsed))
           true
           (elapsed > Time.s 1)))

let test_kvm_ib_overhead_set () =
  ignore
    (in_env (fun env ->
         let m = Stacks.machine env ~name:"kvm" () in
         let _ = Stacks.kvm_local env m in
         match m.Machine.ib with
         | Some ep ->
           check_bool "iommu adder" true (Ib.op_overhead ep = Kvm.ib_op_overhead)
         | None -> Alcotest.fail "machine has no IB"))

(* --- Image copy --- *)

let test_image_copy_deploys_full_image () =
  let breakdown, m, env =
    let env = Stacks.make_env ~image_gb:1 () in
    let m = Stacks.machine env ~name:"node" () in
    let out = ref None in
    Stacks.run env (fun () ->
        let clients =
          [ Stacks.iscsi_client env ~name:"c0";
            Stacks.iscsi_client env ~name:"c1" ]
        in
        out :=
          Some
            (Image_copy.deploy m ~servers:clients
               ~image_sectors:env.Stacks.image_sectors));
    (Option.get !out, m, env)
  in
  check_bool "installer boot 50s" true
    (breakdown.Image_copy.installer_boot = Image_copy.installer_boot_time);
  check_bool "transfer positive" true (breakdown.Image_copy.transfer > 0);
  check_bool "reboot is warm firmware" true (breakdown.Image_copy.reboot > Time.s 60);
  (* Every sector of the image landed on the local disk. *)
  let ok = ref true in
  for lba = 0 to env.Stacks.image_sectors - 1 do
    if not (Content.equal (Disk.sector m.Machine.disk lba) (Content.image lba))
    then ok := false
  done;
  check_bool "disk equals image" true !ok

let test_image_copy_rate_wire_bound () =
  let env = Stacks.make_env ~image_gb:2 () in
  let m = Stacks.machine env ~name:"node" () in
  let out = ref None in
  Stacks.run env (fun () ->
      let clients =
        [ Stacks.iscsi_client env ~name:"c0"; Stacks.iscsi_client env ~name:"c1" ]
      in
      out :=
        Some
          (Image_copy.deploy m ~servers:clients
             ~image_sectors:env.Stacks.image_sectors));
  let b = Option.get !out in
  let rate = 2048.0 /. Time.to_float_s b.Image_copy.transfer in
  check_bool
    (Printf.sprintf "transfer %.1f MB/s in [85, 124]" rate)
    true
    (rate > 85.0 && rate < 124.0)

let test_image_copy_requires_servers () =
  ignore
    (in_env (fun env ->
         let m = Stacks.machine env ~name:"node" () in
         check_bool "raises" true
           (try
              ignore
                (Image_copy.deploy m ~servers:[] ~image_sectors:1024
                  : Image_copy.breakdown);
              false
            with Invalid_argument _ -> true)))

(* --- Net boot --- *)

let test_netboot_serves_without_local_disk () =
  ignore
    (in_env (fun env ->
         let m = Stacks.machine env ~name:"nb" () in
         let rt, _nb = Stacks.netboot env m in
         let data = Content.zeroes ~count:8 in
         rt.Runtime.block_read ~lba:123 ~count:8 data;
         check_bool "image over nfs" true
           (Array.for_all2 Content.equal data
              (Content.image_sectors ~lba:123 ~count:8));
         check_bool "local disk untouched" true
           (Content.equal (Disk.sector m.Machine.disk 123) Content.zero)))

let test_netboot_slower_than_local () =
  let local, net =
    in_env (fun env ->
        let mb = Stacks.machine env ~name:"bare" () in
        let bare_rt = Stacks.bare env mb in
        let mn = Stacks.machine env ~name:"nb" () in
        let nb_rt, _ = Stacks.netboot env mn in
        let time rt =
          let t0 = Sim.clock () in
          rt.Runtime.block_read ~lba:0 ~count:2048 (Content.zeroes ~count:2048);
          Time.diff (Sim.clock ()) t0
        in
        (time bare_rt, time nb_rt))
  in
  check_bool "network path slower" true (net > local)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "baselines"
    [ ( "kvm",
        [ tc "taxes installed" `Quick test_kvm_taxes_installed;
          tc "virtio slower than bare" `Quick test_kvm_virtio_slower_than_bare;
          tc "remote backend reads server" `Quick test_kvm_remote_backend_reads_server;
          tc "host steals cores" `Quick test_kvm_host_steals_cores;
          tc "ib overhead set" `Quick test_kvm_ib_overhead_set ] );
      ( "image-copy",
        [ tc "deploys full image" `Slow test_image_copy_deploys_full_image;
          tc "rate wire bound" `Slow test_image_copy_rate_wire_bound;
          tc "requires servers" `Quick test_image_copy_requires_servers ] );
      ( "net-boot",
        [ tc "serves without local disk" `Quick test_netboot_serves_without_local_disk;
          tc "slower than local" `Quick test_netboot_slower_than_local ] ) ]
