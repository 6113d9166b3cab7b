module Sim = Bmcast_engine.Sim
module Time = Bmcast_engine.Time
module Semaphore = Bmcast_engine.Semaphore
module Signal = Bmcast_engine.Signal
module Cpu = Bmcast_hw.Cpu
module Runtime = Bmcast_platform.Runtime
module Machine = Bmcast_platform.Machine

type threads_result = { elapsed : Time.span; lock_ops : int }

(* Per-iteration CPU inside and outside the critical section. *)
let hold_work = Time.us 2
let gap_work = Time.us 3
let iterations = 1000
let mutexes = 8

let run_threads runtime ~threads =
  if threads <= 0 then invalid_arg "Sysbench.run_threads: threads";
  let machine = runtime.Runtime.machine in
  let cores = Cpu.num_cores machine.Machine.cpu in
  (* Oversubscribed threads time-share the cores through the guest
     scheduler. *)
  let sched = Sched.create runtime in
  let prng =
    Bmcast_engine.Prng.split (Sim.rand machine.Machine.sim)
  in
  let locks = Array.init mutexes (fun _ -> Semaphore.create 1) in
  let ops = ref 0 in
  let done_count = ref 0 in
  let all_done = Signal.Latch.create () in
  let t0 = Sim.clock () in
  for k = 0 to threads - 1 do
    Sim.spawn ~name:(Printf.sprintf "sysbench-thread%d" k) (fun () ->
        let core = k mod cores in
        let work w = Sched.run sched ~tid:k ~work:w ~mem_intensity:0.15 in
        for _ = 0 to iterations - 1 do
          (* sysbench picks a mutex at random each iteration. *)
          let m = locks.(Bmcast_engine.Prng.int prng mutexes) in
          (* A contended acquire spins and yields; on a conventional VMM
             the spin triggers pause-loop/HLT exits (the per-yield cost
             in the CPU model), so the tax scales with contention. *)
          if not (Semaphore.try_acquire m) then begin
            Bmcast_platform.Cpu_model.yield machine.Machine.cpu
              runtime.Runtime.cpu ~core;
            Semaphore.acquire m
          end;
          (* acquire-yield-release: the yield keeps the lock held across
             a scheduling point — the LHP window. *)
          work hold_work;
          Sim.yield ();
          Semaphore.release m;
          incr ops;
          work gap_work
        done;
        incr done_count;
        if !done_count = threads then Signal.Latch.set all_done)
  done;
  Signal.Latch.wait all_done;
  { elapsed = Time.diff (Sim.clock ()) t0; lock_ops = !ops }

type memory_result = { throughput_mib_s : float }

(* Modelled memory rate ~6 GB/s per core and a fixed per-block cost
   (allocator + loop overhead) that dominates small blocks. *)
let mem_rate_bytes_per_s = 6e9
let per_block_cost = Time.ns 350

(* Small blocks spend their time in allocator logic (cache-resident);
   big blocks stream fresh pages, which is where nested paging hurts. *)
let memory_intensity ~block_bytes =
  let b = float_of_int block_bytes in
  Float.min 1.0 (0.4 +. (0.6 *. (b /. 16384.0)))

let total_bytes = 1024 * 1024  (* per round *)
let rounds = 64

let run_memory runtime ~block_bytes =
  if block_bytes <= 0 then invalid_arg "Sysbench.run_memory: block_bytes";
  let blocks = max 1 (total_bytes / block_bytes) in
  let per_round =
    Time.add
      (Time.of_float_s (float_of_int total_bytes /. mem_rate_bytes_per_s))
      (Time.mul per_block_cost blocks)
  in
  let mem = memory_intensity ~block_bytes in
  let t0 = Sim.clock () in
  for _ = 1 to rounds do
    Runtime.cpu_run runtime ~core:0 ~work:per_round ~mem_intensity:mem
  done;
  let elapsed = Time.to_float_s (Time.diff (Sim.clock ()) t0) in
  { throughput_mib_s =
      float_of_int (rounds * total_bytes) /. elapsed /. (1024.0 *. 1024.0) }
