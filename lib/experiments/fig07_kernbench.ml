module Sim = Bmcast_engine.Sim
module Time = Bmcast_engine.Time
module Kernbench = Bmcast_guest.Kernbench
module Vmm = Bmcast_core.Vmm

type result = {
  bare_s : float;
  deploy_s : float;
  devirt_s : float;
  kvm_s : float;
}

let secs = Time.to_float_s

let on_static make_stack =
  let env = Stacks.make_env ~image_gb:8 () in
  let m = Stacks.machine env ~name:"node" () in
  let rt = make_stack env m in
  let out = ref 0.0 in
  Stacks.run env (fun () ->
      let r = Kernbench.run rt () in
      out := secs r.Kernbench.elapsed);
  !out

let measure () =
  let bare_s = on_static (fun env m -> Stacks.bare env m) in
  let kvm_s = on_static (fun env m -> fst (Stacks.kvm_local env m)) in
  (* During deployment: the image is large enough that the copy is still
     running for the whole compile. *)
  let deploy_s =
    let env = Stacks.make_env ~image_gb:8 () in
    let m = Stacks.machine env ~name:"deploy" () in
    let out = ref 0.0 in
    Stacks.run env (fun () ->
        let rt, _vmm = Stacks.bmcast env m () in
        let r = Kernbench.run rt () in
        out := secs r.Kernbench.elapsed);
    !out
  in
  (* After de-virtualization: deploy a small image to completion
     first. *)
  let devirt_s =
    let env = Stacks.make_env ~image_gb:1 () in
    let m = Stacks.machine env ~name:"devirt" () in
    let out = ref 0.0 in
    Stacks.run env (fun () ->
        let rt, vmm = Stacks.bmcast env m () in
        (* Touch the disk so deployment starts, then wait it out. *)
        rt.Bmcast_platform.Runtime.block_read ~lba:0 ~count:8
          (Bmcast_storage.Content.zeroes ~count:8);
        Vmm.wait_devirtualized vmm;
        let r = Kernbench.run rt () in
        out := secs r.Kernbench.elapsed);
    !out
  in
  { bare_s; deploy_s; devirt_s; kvm_s }

let run () =
  Report.section "Figure 7: kernel compile (kernbench, make -j12)";
  let r = measure () in
  Report.row ~label:"Baremetal" ~paper:16.0 ~units:"s" r.bare_s;
  Report.row ~label:"BMcast (deploying)" ~paper:17.3 ~units:"s" r.deploy_s;
  Report.row ~label:"BMcast (devirtualized)" ~paper:16.0 ~units:"s" r.devirt_s;
  Report.row ~label:"KVM" ~paper:16.5 ~units:"s" r.kvm_s;
  Report.row ~label:"deploy overhead" ~paper:8.0 ~units:"%"
    ((r.deploy_s /. r.bare_s -. 1.0) *. 100.0);
  Report.row ~label:"devirt overhead" ~paper:0.0 ~units:"%"
    ((r.devirt_s /. r.bare_s -. 1.0) *. 100.0);
  Report.row ~label:"KVM overhead" ~paper:3.0 ~units:"%"
    ((r.kvm_s /. r.bare_s -. 1.0) *. 100.0)
