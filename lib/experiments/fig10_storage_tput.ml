module Sim = Bmcast_engine.Sim
module Time = Bmcast_engine.Time
module Fio = Bmcast_guest.Fio
module Vmm = Bmcast_core.Vmm

type result = { label : string; read_mb_s : float; write_mb_s : float }

let fio_pair rt ~read_lba ~write_lba =
  let r = Fio.seq_read rt ~start_lba:read_lba () in
  let w = Fio.seq_write rt ~start_lba:write_lba () in
  (r.Fio.throughput_mb_s, w.Fio.throughput_mb_s)

let mb = 2048 (* sectors *)

let on_static label make_stack =
  let env = Stacks.make_env ~image_gb:4 () in
  let m = Stacks.machine env ~name:label () in
  let out = ref (0.0, 0.0) in
  Stacks.run env (fun () ->
      let rt = make_stack env m in
      out := fio_pair rt ~read_lba:0 ~write_lba:(1024 * mb));
  let read_mb_s, write_mb_s = !out in
  { label; read_mb_s; write_mb_s }

let measure () =
  let bare = on_static "Baremetal" (fun env m -> Stacks.bare env m) in
  let deploy =
    let env = Stacks.make_env ~image_gb:8 () in
    let m = Stacks.machine env ~name:"Deploy" () in
    let out = ref (0.0, 0.0) in
    Stacks.run env (fun () ->
        let rt, vmm = Stacks.bmcast env m () in
        (* Touch the disk to start deployment, then let the background
           copy run past the measurement region so reads are local. *)
        rt.Bmcast_platform.Runtime.block_read ~lba:0 ~count:8
          (Bmcast_storage.Content.zeroes ~count:8);
        let copied () =
          Vmm.progress vmm *. 8192.0 (* MB *)
        in
        while copied () < 500.0 do
          Sim.sleep (Time.s 1)
        done;
        out := fio_pair rt ~read_lba:0 ~write_lba:(6144 * mb));
    let read_mb_s, write_mb_s = !out in
    { label = "BMcast deploy"; read_mb_s; write_mb_s }
  in
  let devirt =
    let env = Stacks.make_env ~image_gb:1 () in
    let m = Stacks.machine env ~name:"Devirt" () in
    let out = ref (0.0, 0.0) in
    Stacks.run env (fun () ->
        let rt, vmm = Stacks.bmcast env m () in
        rt.Bmcast_platform.Runtime.block_read ~lba:0 ~count:8
          (Bmcast_storage.Content.zeroes ~count:8);
        Vmm.wait_devirtualized vmm;
        out := fio_pair rt ~read_lba:0 ~write_lba:(1024 * mb));
    let read_mb_s, write_mb_s = !out in
    { label = "BMcast devirt"; read_mb_s; write_mb_s }
  in
  let netboot = on_static "Netboot" (fun env m -> fst (Stacks.netboot env m)) in
  let kvm_local = on_static "KVM/Local" (fun env m -> fst (Stacks.kvm_local env m)) in
  let kvm_nfs =
    on_static "KVM/NFS" (fun env m -> fst (Stacks.kvm_remote env m `Nfs))
  in
  [ bare; deploy; devirt; netboot; kvm_local; kvm_nfs ]

let paper = function
  | "Baremetal" -> Some (116.6, 111.9)
  | "BMcast deploy" -> Some (111.8, 111.9)
  | "BMcast devirt" -> Some (114.6, 111.9)
  | "KVM/Local" -> Some (104.4, 96.7)
  | "KVM/NFS" -> Some (102.3, 94.8)
  | _ -> None

let run () =
  Report.section "Figure 10: storage throughput (fio 200 MB, 1 MB blocks)";
  let results = measure () in
  List.iter
    (fun r ->
      let p = paper r.label in
      Report.row ~label:(r.label ^ " read")
        ?paper:(Option.map fst p) ~units:"MB/s" r.read_mb_s;
      Report.row ~label:(r.label ^ " write")
        ?paper:(Option.map snd p) ~units:"MB/s" r.write_mb_s)
    results
