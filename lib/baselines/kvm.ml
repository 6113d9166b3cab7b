module Sim = Bmcast_engine.Sim
module Time = Bmcast_engine.Time
module Prng = Bmcast_engine.Prng
module Semaphore = Bmcast_engine.Semaphore
module Cpu = Bmcast_hw.Cpu
module Tlb = Bmcast_hw.Tlb
module Content = Bmcast_storage.Content
module Disk = Bmcast_storage.Disk
module Ib = Bmcast_net.Ib
module Machine = Bmcast_platform.Machine
module Runtime = Bmcast_platform.Runtime
module Cpu_model = Bmcast_platform.Cpu_model
module Remote_block = Bmcast_proto.Remote_block

type backend = Local | Remote of Remote_block.client

(* Calibration targets:
   - virtio storage: read -10.5% / write -13.6% at 1 MB blocks (Fig 10);
   - host steals: ~3% of CPU in short slices (kernbench +3%, Fig 7),
     which compound into lock-holder preemption under contention;
   - contended-lock spins: a few pause-loop exits plus a vCPU kick,
     ~25 us per contended acquire (sysbench-threads +68% at 24 threads);
   - IB: +23.6% on synchronous 64 KB RDMA latency (Fig 13). *)
let host_boot_time = Time.s 30
let guest_boot_extra = Time.of_float_s 4.0
let virtio_read_fixed = Time.us 220
let virtio_read_per_sector = Time.ns 390
let virtio_write_fixed = Time.us 260
let virtio_write_per_sector = Time.ns 590
let yield_exit_cost = Time.us 25
let ib_op_overhead = Time.us 5
let steal_period = Time.ms 8
let steal_duration = Time.us 120

type t = {
  machine : Machine.t;
  backend : backend;
  cpu_model : Cpu_model.t;
  host_disk_lock : Semaphore.t;
}

(* Host scheduler interference: periodically steal each core for
   housekeeping (softirqs, host timer ticks, QEMU iothreads). Pinning
   keeps it small but never zero. *)
let start_host_scheduler machine =
  let cpu = machine.Machine.cpu in
  Cpu.enable_interference cpu;
  let prng = Prng.split (Sim.rand machine.Machine.sim) in
  for core = 0 to Cpu.num_cores cpu - 1 do
    Sim.spawn_at machine.Machine.sim
      ~name:(Printf.sprintf "kvm-host-steal%d" core)
      (Sim.now machine.Machine.sim)
      (fun () ->
        let c = Cpu.core cpu core in
        let rec loop () =
          (* Jitter the period so cores do not steal in lockstep. *)
          let jitter = Prng.int prng (steal_period / 4) in
          Sim.sleep (steal_period + jitter);
          Cpu.set_unavailable_until c
            (Time.add (Sim.now machine.Machine.sim) steal_duration);
          loop ()
        in
        loop ())
  done

let create machine ~backend =
  let cpu_model =
    Cpu_model.create ~tlb_mode:Tlb.Nested_paging_host ~steal:0.01
      ~exit_overhead:0.0
  in
  Cpu_model.set_yield_cost cpu_model yield_exit_cost;
  start_host_scheduler machine;
  (match machine.Machine.ib with
  | Some ep -> Ib.set_op_overhead ep ib_op_overhead
  | None -> ());
  { machine; backend; cpu_model; host_disk_lock = Semaphore.create 1 }

let boot_host _t = Sim.sleep host_boot_time

let cpu_model t = t.cpu_model

let virtio_cost fixed per_sector count = fixed + (per_sector * count)

let block_read t ~lba ~count =
  Sim.sleep (virtio_cost virtio_read_fixed virtio_read_per_sector count);
  Cpu.record_exit t.machine.Machine.cpu Cpu.Mmio ~cost:(Time.us 2);
  match t.backend with
  | Local ->
    Semaphore.with_permit t.host_disk_lock (fun () ->
        Disk.read t.machine.Machine.disk ~lba ~count)
  | Remote client -> Remote_block.read client ~lba ~count

let block_write t ~lba ~count data =
  Sim.sleep (virtio_cost virtio_write_fixed virtio_write_per_sector count);
  Cpu.record_exit t.machine.Machine.cpu Cpu.Mmio ~cost:(Time.us 2);
  match t.backend with
  | Local ->
    Semaphore.with_permit t.host_disk_lock (fun () ->
        Disk.write t.machine.Machine.disk ~lba ~count data)
  | Remote client -> Remote_block.write client ~lba ~count data

let runtime t =
  { Runtime.label = "kvm";
    machine = t.machine;
    block_read =
      (fun ~lba ~count dst ->
        Content.blit (block_read t ~lba ~count) 0 dst 0 count);
    block_write = (fun ~lba ~count data -> block_write t ~lba ~count data);
    cpu = t.cpu_model;
    phase = (fun () -> Runtime.Kvm) }
