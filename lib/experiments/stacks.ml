module Sim = Bmcast_engine.Sim
module Time = Bmcast_engine.Time
module Disk = Bmcast_storage.Disk
module Fabric = Bmcast_net.Fabric
module Ib = Bmcast_net.Ib
module Vblade = Bmcast_proto.Vblade
module Remote_block = Bmcast_proto.Remote_block
module Machine = Bmcast_platform.Machine
module Runtime = Bmcast_platform.Runtime
module Cpu_model = Bmcast_platform.Cpu_model
module Block_io = Bmcast_guest.Block_io
module Params = Bmcast_core.Params
module Vmm = Bmcast_core.Vmm
module Kvm = Bmcast_baselines.Kvm
module Net_boot = Bmcast_baselines.Net_boot

type env = {
  sim : Sim.t;
  fabric : Fabric.t;
  ib : Ib.t;
  vblade : Vblade.t;
  iscsi : Remote_block.server;
  nfs : Remote_block.server;
  image_sectors : int;
  disk_profile : Disk.profile;
}

let make_env ?(seed = 42) ?(image_gb = 32)
    ?(disk_profile = Disk.hdd_constellation2) ?(vblade_ram_cache = false)
    ?trace ?metrics () =
  let sim = Sim.create ~seed ?trace ?metrics () in
  let fabric = Fabric.create sim () in
  let ib = Ib.create sim in
  let image_sectors = image_gb * 1024 * 1024 * 2 in
  let server_disk name =
    let d = Disk.create sim disk_profile in
    Disk.fill_with_image d;
    ignore name;
    d
  in
  let vblade =
    Vblade.create sim ~fabric ~name:"vblade" ~disk:(server_disk "vblade")
      ~ram_cache:vblade_ram_cache ()
  in
  let iscsi =
    Remote_block.create_server sim ~fabric ~name:"iscsi-server"
      ~disk:(server_disk "iscsi") Remote_block.Iscsi
  in
  let nfs =
    Remote_block.create_server sim ~fabric ~name:"nfs-server"
      ~disk:(server_disk "nfs") Remote_block.Nfs
  in
  { sim; fabric; ib; vblade; iscsi; nfs; image_sectors; disk_profile }

let machine env ~name ?(disk_kind = Machine.Ahci_disk) () =
  Machine.create env.sim ~name ~disk_profile:env.disk_profile ~disk_kind
    ~fabric:env.fabric ~ib:env.ib ()

let bare env m =
  Disk.fill_with_image m.Machine.disk;
  ignore env;
  let blk = Block_io.attach m in
  { Runtime.label = "bare-metal";
    machine = m;
    block_read =
      (fun ~lba ~count dst -> Block_io.read_into blk ~lba ~count dst);
    block_write = (fun ~lba ~count data -> Block_io.write blk ~lba ~count data);
    cpu = Cpu_model.bare ();
    phase = (fun () -> Runtime.Bare) }

let bmcast_params env = Params.default ~image_sectors:env.image_sectors

let bmcast env m ?params () =
  let params = Option.value params ~default:(bmcast_params env) in
  let vmm = Vmm.boot m ~params ~server_port:(Vblade.port_id env.vblade) () in
  let blk = Block_io.attach m in
  let runtime =
    { Runtime.label = "bmcast";
      machine = m;
      block_read =
      (fun ~lba ~count dst -> Block_io.read_into blk ~lba ~count dst);
      block_write = (fun ~lba ~count data -> Block_io.write blk ~lba ~count data);
      cpu = Vmm.cpu_model vmm;
      phase = (fun () -> Vmm.phase vmm) }
  in
  (runtime, vmm)

let iscsi_client env ~name = Remote_block.connect env.sim ~fabric:env.fabric ~name env.iscsi
let nfs_client env ~name = Remote_block.connect env.sim ~fabric:env.fabric ~name env.nfs

let kvm_local env m =
  Disk.fill_with_image m.Machine.disk;
  ignore env;
  let kvm = Kvm.create m ~backend:Kvm.Local in
  (Kvm.runtime kvm, kvm)

let kvm_remote env m which =
  let client =
    match which with
    | `Nfs -> nfs_client env ~name:(m.Machine.name ^ "-nfsc")
    | `Iscsi -> iscsi_client env ~name:(m.Machine.name ^ "-iscsic")
  in
  let kvm = Kvm.create m ~backend:(Kvm.Remote client) in
  (Kvm.runtime kvm, kvm)

let netboot env m =
  let client = nfs_client env ~name:(m.Machine.name ^ "-nfsroot") in
  let nb = Net_boot.create m ~server:client in
  (Net_boot.runtime nb, nb)

let run env scenario =
  Sim.spawn_at env.sim ~name:"experiment" (Sim.now env.sim) (fun () ->
      scenario ();
      (* Background machinery (deployment threads, servers) would keep
         the event queue alive forever; the scenario's return defines
         the end of the experiment. *)
      Sim.request_stop env.sim);
  Sim.run env.sim
