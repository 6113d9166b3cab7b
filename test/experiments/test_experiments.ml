(* Smoke tests for the experiment harness: each cheap figure runs end to
   end and honours its headline shape property on a reduced scale. *)

module Sim = Bmcast_engine.Sim
module Time = Bmcast_engine.Time
module Content = Bmcast_storage.Content
module Runtime = Bmcast_platform.Runtime
module Os = Bmcast_guest.Os
module Vmm = Bmcast_core.Vmm
open Bmcast_experiments

let check_bool = Alcotest.(check bool)

let test_stacks_every_builder () =
  let env = Stacks.make_env ~image_gb:1 () in
  Stacks.run env (fun () ->
      let mk name = Stacks.machine env ~name () in
      let bare = Stacks.bare env (mk "bare") in
      bare.Runtime.block_read ~lba:0 ~count:8 (Content.zeroes ~count:8);
      let kvm_rt, _ = Stacks.kvm_local env (mk "kvml") in
      kvm_rt.Runtime.block_read ~lba:0 ~count:8 (Content.zeroes ~count:8);
      let kvmr_rt, _ = Stacks.kvm_remote env (mk "kvmr") `Nfs in
      kvmr_rt.Runtime.block_read ~lba:0 ~count:8 (Content.zeroes ~count:8);
      let nb_rt, _ = Stacks.netboot env (mk "nb") in
      nb_rt.Runtime.block_read ~lba:0 ~count:8 (Content.zeroes ~count:8);
      let bm_rt, vmm = Stacks.bmcast env (mk "bm") () in
      bm_rt.Runtime.block_read ~lba:0 ~count:8 (Content.zeroes ~count:8);
      check_bool "deploying" true (Vmm.phase vmm = Runtime.Deploying))

let test_fig4_shape_small_image () =
  (* On a 1 GB image the ordering must already hold: BMcast beats image
     copying by a wide margin post-firmware. *)
  let results = Fig04_startup.measure ~image_gb:1 () in
  let find l =
    (List.find (fun r -> r.Fig04_startup.label = l) results)
      .Fig04_startup.total_post_firmware
  in
  check_bool "bmcast < image copy / 2" true
    (find "BMcast" < find "Image Copy" /. 2.0);
  check_bool "bare fastest" true (find "Baremetal" <= find "BMcast")

let test_fig6_shape () =
  let results = Fig06_mpi.measure ~nodes:6 ~bytes:8192 () in
  List.iter
    (fun r ->
      check_bool
        (r.Fig06_mpi.collective ^ ": kvm worst")
        true
        (r.Fig06_mpi.kvm_us > r.Fig06_mpi.bare_us);
      check_bool
        (r.Fig06_mpi.collective ^ ": bmcast near bare")
        true
        (r.Fig06_mpi.bmcast_us < r.Fig06_mpi.bare_us *. 1.15))
    results

let test_fig9_shape () =
  let points = Fig09_memory.measure ~block_kbs:[ 1; 16 ] () in
  List.iter
    (fun p ->
      check_bool "kvm slowest" true
        (p.Fig09_memory.kvm_mib_s < p.Fig09_memory.deploy_mib_s);
      check_bool "deploy below bare" true
        (p.Fig09_memory.deploy_mib_s < p.Fig09_memory.bare_mib_s))
    points

let test_fig12_13_shape () =
  let results = Fig12_13_infiniband.measure ~iterations:200 () in
  let find l = List.find (fun r -> r.Fig12_13_infiniband.label = l) results in
  let bare = find "Baremetal" and kvm = find "KVM/Direct" in
  let devirt = find "BMcast devirt" in
  (* Bandwidth identical, latency split. *)
  check_bool "bw equal" true
    (abs_float (bare.Fig12_13_infiniband.bw_gb_s -. kvm.Fig12_13_infiniband.bw_gb_s)
     /. bare.Fig12_13_infiniband.bw_gb_s
    < 0.02);
  check_bool "kvm latency worse" true
    (kvm.Fig12_13_infiniband.lat_us > bare.Fig12_13_infiniband.lat_us *. 1.15);
  check_bool "devirt == bare" true
    (abs_float (devirt.Fig12_13_infiniband.lat_us -. bare.Fig12_13_infiniband.lat_us)
    < 0.01)

let test_fig8_shape_quick () =
  let points = Fig08_threads.measure ~thread_counts:[ 1; 12 ] () in
  let find n = List.find (fun p -> p.Fig08_threads.threads = n) points in
  let p1 = find 1 and p12 = find 12 in
  (* KVM's overhead grows with contention. *)
  let ovh p = (p.Fig08_threads.kvm_ms /. p.Fig08_threads.bare_ms -. 1.0) *. 100.0 in
  check_bool
    (Printf.sprintf "kvm overhead grows (%.0f%% -> %.0f%%)" (ovh p1) (ovh p12))
    true
    (ovh p12 > ovh p1 +. 10.0);
  (* BMcast stays moderate. *)
  check_bool "bmcast moderate" true
    (p12.Fig08_threads.deploy_ms < p12.Fig08_threads.bare_ms *. 1.1)

let test_deployment_end_to_end_via_stacks () =
  (* The canonical flow the examples use: boot, run, devirtualize. *)
  let env = Stacks.make_env ~image_gb:1 () in
  let m = Stacks.machine env ~name:"node" () in
  Stacks.run env (fun () ->
      let rt, vmm = Stacks.bmcast env m () in
      Os.boot rt ();
      Vmm.wait_devirtualized vmm;
      check_bool "devirtualized" true (rt.Runtime.phase () = Runtime.Devirtualized);
      let t = Vmm.totals vmm in
      check_bool "copy-on-read happened" true (t.Vmm.redirects > 0);
      check_bool "background copy happened" true (t.Vmm.background_bytes > 0))

let test_scaleup_smoke () =
  let results = Scaleup.measure ~image_gb:1 ~counts:[ 1; 2 ] () in
  let find n s =
    (List.find
       (fun r -> r.Scaleup.instances = n && r.Scaleup.strategy = s)
       results)
      .Scaleup.mean_ready_s
  in
  check_bool "bmcast beats copy at N=1" true
    (find 1 "BMcast" < find 1 "Image Copy");
  check_bool "bmcast beats copy at N=2" true
    (find 2 "BMcast" < find 2 "Image Copy");
  (* BMcast barely degrades from 1 to 2 instances. *)
  check_bool "bmcast stays flat" true
    (find 2 "BMcast" < find 1 "BMcast" *. 1.3)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "experiments"
    [ ( "stacks",
        [ tc "every builder works" `Quick test_stacks_every_builder;
          tc "deployment end to end" `Slow test_deployment_end_to_end_via_stacks ] );
      ( "figures",
        [ tc "fig4 shape (small image)" `Slow test_fig4_shape_small_image;
          tc "fig6 shape" `Quick test_fig6_shape;
          tc "fig8 shape" `Slow test_fig8_shape_quick;
          tc "fig9 shape" `Quick test_fig9_shape;
          tc "fig12/13 shape" `Quick test_fig12_13_shape;
          tc "scaleup smoke" `Slow test_scaleup_smoke ] ) ]
