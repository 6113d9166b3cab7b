(* Tests for the guest OS model and workload generators, run against the
   bare-metal stack. *)

module Sim = Bmcast_engine.Sim
module Time = Bmcast_engine.Time
module Prng = Bmcast_engine.Prng
module Content = Bmcast_storage.Content
module Machine = Bmcast_platform.Machine
module Runtime = Bmcast_platform.Runtime
module Os = Bmcast_guest.Os
module Fio = Bmcast_guest.Fio
module Ioping = Bmcast_guest.Ioping
module Sysbench = Bmcast_guest.Sysbench
module Kernbench = Bmcast_guest.Kernbench
module Ycsb = Bmcast_guest.Ycsb
module Block_io = Bmcast_guest.Block_io
module Stacks = Bmcast_experiments.Stacks

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A bare-metal runtime on a small testbed. *)
let on_bare ?(image_gb = 4) ?disk_kind f =
  let env = Stacks.make_env ~image_gb () in
  let m = Stacks.machine env ~name:"bare" ?disk_kind () in
  let out = ref None in
  Stacks.run env (fun () -> out := Some (f env (Stacks.bare env m)));
  Option.get !out

(* --- Block_io / drivers --- *)

let test_block_io_roundtrip_ahci () =
  on_bare (fun _ rt ->
      let data = Content.data_sectors ~count:32 in
      rt.Runtime.block_write ~lba:1000 ~count:32 data;
      let got = Content.zeroes ~count:32 in
      rt.Runtime.block_read ~lba:1000 ~count:32 got;
      check_bool "roundtrip" true (Array.for_all2 Content.equal data got))

let test_block_io_roundtrip_ide () =
  on_bare ~disk_kind:Machine.Ide_disk (fun _ rt ->
      let data = Content.data_sectors ~count:300 (* > 256: two commands *) in
      rt.Runtime.block_write ~lba:5000 ~count:300 data;
      let got = Content.zeroes ~count:300 in
      rt.Runtime.block_read ~lba:5000 ~count:300 got;
      check_bool "roundtrip across command split" true
        (Array.for_all2 Content.equal data got))

let test_block_io_discovers_via_pci () =
  (* Hiding the storage controller's config space makes driver binding
     fail - proof the guest finds its device by PCI scan. *)
  let env = Stacks.make_env ~image_gb:1 () in
  let m = Stacks.machine env ~name:"bare" () in
  Bmcast_hw.Pci.hide m.Machine.pci { Bmcast_hw.Pci.bus = 0; dev = 2; fn = 0 };
  Stacks.run env (fun () ->
      Alcotest.(check bool) "no controller visible" true
        (try
           ignore (Block_io.attach m : Block_io.t);
           false
         with Invalid_argument _ -> true))

(* Both drivers reject a count that is not positive, or larger than the
   buffer, with an [Invalid_argument] naming the driver, before any
   register access: under a resident VMM every access traps, and the
   trap counters do not move. A valid command still runs afterwards. *)
let test_drivers_reject_bad_count disk_kind driver () =
  let env = Stacks.make_env ~image_gb:1 () in
  let m = Stacks.machine env ~name:"guest" ~disk_kind () in
  let traps () =
    Bmcast_hw.Mmio.trapped_accesses m.Machine.mmio
    + Bmcast_hw.Pio.trapped_accesses m.Machine.pio
  in
  Stacks.run env (fun () ->
      let _rt, _vmm = Stacks.bmcast env m () in
      let blk = Block_io.attach m in
      let rejects what f =
        let before = traps () and t0 = Sim.clock () in
        (match f () with
        | () -> Alcotest.failf "%s: accepted" what
        | exception Invalid_argument msg ->
          check_bool
            (Printf.sprintf "%s: %S names %s" what msg driver)
            true
            (String.starts_with ~prefix:(driver ^ ".") msg));
        check_int (what ^ ": no register access") before (traps ());
        check_int (what ^ ": no time passed") t0 (Sim.clock ())
      in
      let buf = Content.zeroes ~count:8 in
      rejects "read count 0" (fun () ->
          Block_io.read_into blk ~lba:0 ~count:0 buf);
      rejects "read count -1" (fun () ->
          Block_io.read_into blk ~lba:0 ~count:(-1) buf);
      rejects "read past the buffer" (fun () ->
          Block_io.read_into blk ~lba:0 ~count:9 buf);
      rejects "allocating read count 0" (fun () ->
          ignore (Block_io.read blk ~lba:0 ~count:0 : Content.t array));
      rejects "allocating read count -1" (fun () ->
          ignore (Block_io.read blk ~lba:0 ~count:(-1) : Content.t array));
      rejects "write count 0" (fun () ->
          Block_io.write blk ~lba:0 ~count:0 buf);
      rejects "write count -1" (fun () ->
          Block_io.write blk ~lba:0 ~count:(-1) buf);
      rejects "write past the data" (fun () ->
          Block_io.write blk ~lba:0 ~count:9 buf);
      Block_io.read_into blk ~lba:0 ~count:8 buf;
      check_bool "a valid read still runs" true
        (Array.for_all2 Content.equal buf
           (Content.image_sectors ~lba:0 ~count:8)))

(* --- Os boot model --- *)

let test_boot_trace_deterministic () =
  let p1 = Prng.create 5 and p2 = Prng.create 5 in
  let t1 = Os.trace p1 Os.default_profile in
  let t2 = Os.trace p2 Os.default_profile in
  check_bool "same trace for same seed" true (t1 = t2)

let test_boot_trace_totals () =
  let p = Prng.create 5 in
  let trace = Os.trace p Os.default_profile in
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 trace in
  let expect = Os.default_profile.Os.total_read_bytes / 512 in
  check_bool
    (Printf.sprintf "read volume %d ~ %d" total expect)
    true
    (abs (total - expect) < expect / 10);
  List.iter
    (fun (lba, count) ->
      check_bool "within span" true
        (lba >= 0
        && (lba + count) * 512 <= Os.default_profile.Os.span_bytes))
    trace

let test_bare_boot_time_calibration () =
  (* The paper's testbed boots Ubuntu 14.04 in 29 s from local disk. *)
  let elapsed =
    on_bare ~image_gb:8 (fun _ rt ->
        let t0 = Sim.clock () in
        Os.boot rt ();
        Time.to_float_s (Time.diff (Sim.clock ()) t0))
  in
  check_bool
    (Printf.sprintf "boot %.1f s in [24, 34]" elapsed)
    true
    (elapsed > 24.0 && elapsed < 34.0)

(* --- fio --- *)

let test_fio_read_rate () =
  let r = on_bare (fun _ rt -> Fio.seq_read rt ()) in
  check_bool
    (Printf.sprintf "read %.1f MB/s" r.Fio.throughput_mb_s)
    true
    (r.Fio.throughput_mb_s > 110.0 && r.Fio.throughput_mb_s < 125.0);
  check_int "ops" 200 r.Fio.ops

let test_fio_write_slower_than_read () =
  let r, w =
    on_bare (fun _ rt ->
        (Fio.seq_read rt (), Fio.seq_write rt ~start_lba:(2048 * 1024) ()))
  in
  check_bool "write <= read" true
    (w.Fio.throughput_mb_s <= r.Fio.throughput_mb_s)

let test_fio_rejects_bad_block () =
  on_bare (fun _ rt ->
      check_bool "raises" true
        (try
           ignore (Fio.seq_read rt ~block_bytes:100 () : Fio.result);
           false
         with Invalid_argument _ -> true))

(* --- ioping --- *)

let test_ioping_latency_positive () =
  let r = on_bare (fun _ rt -> Ioping.run rt ~requests:50 ()) in
  check_bool "avg in HDD range" true (r.Ioping.avg_ms > 1.0 && r.Ioping.avg_ms < 15.0)

(* --- sysbench --- *)

let test_sysbench_threads_monotone () =
  let t1, t24 =
    on_bare (fun _ rt ->
        ( Sysbench.run_threads rt ~threads:1,
          Sysbench.run_threads rt ~threads:24 ))
  in
  check_bool "oversubscription costs time" true
    (t24.Sysbench.elapsed > t1.Sysbench.elapsed);
  check_int "ops" (24 * 1000) t24.Sysbench.lock_ops

let test_sysbench_memory_block_scaling () =
  let small, large =
    on_bare (fun _ rt ->
        ( Sysbench.run_memory rt ~block_bytes:1024,
          Sysbench.run_memory rt ~block_bytes:16384 ))
  in
  (* Bigger blocks amortize per-block overhead: higher throughput. *)
  check_bool "16K faster than 1K" true
    (large.Sysbench.throughput_mib_s > small.Sysbench.throughput_mib_s)

let test_memory_intensity_model () =
  check_bool "monotone" true
    (Sysbench.memory_intensity ~block_bytes:1024
    < Sysbench.memory_intensity ~block_bytes:16384);
  check_bool "capped at 1" true
    (Sysbench.memory_intensity ~block_bytes:(1 lsl 20) <= 1.0)

(* --- sched --- *)

module Sched = Bmcast_guest.Sched

let test_sched_single_thread_no_overhead () =
  let elapsed =
    on_bare (fun _ rt ->
        let sched = Sched.create rt in
        let t0 = Sim.clock () in
        Sched.run sched ~tid:0 ~work:(Time.ms 5) ~mem_intensity:0.0;
        Time.diff (Sim.clock ()) t0)
  in
  check_int "uncontended = exact" (Time.ms 5) elapsed

let test_sched_two_threads_one_core_timeshare () =
  (* Two threads pinned to the same core: each runs half the time, so
     both finish around 2x their work. *)
  let finish_times =
    on_bare (fun _ rt ->
        let sched = Sched.create rt in
        let done_at = ref [] in
        let cores =
          Bmcast_hw.Cpu.num_cores rt.Runtime.machine.Machine.cpu
        in
        let n = 2 in
        let latch = Bmcast_engine.Signal.Latch.create () in
        let finished = ref 0 in
        for k = 0 to n - 1 do
          Sim.spawn (fun () ->
              (* same core: tids k*cores land on core 0 *)
              Sched.run sched ~tid:(k * cores) ~work:(Time.ms 10)
                ~mem_intensity:0.0;
              done_at := Sim.clock () :: !done_at;
              incr finished;
              if !finished = n then Bmcast_engine.Signal.Latch.set latch)
        done;
        Bmcast_engine.Signal.Latch.wait latch;
        !done_at)
  in
  List.iter
    (fun t ->
      check_bool
        (Printf.sprintf "finish %s ~ 2x work" (Time.to_string t))
        true
        (t >= Time.ms 19 && t <= Time.ms 22))
    finish_times

let test_sched_threads_on_distinct_cores_parallel () =
  let finish =
    on_bare (fun _ rt ->
        let sched = Sched.create rt in
        let latch = Bmcast_engine.Signal.Latch.create () in
        let finished = ref 0 in
        let t0 = Sim.clock () in
        for k = 0 to 3 do
          Sim.spawn (fun () ->
              Sched.run sched ~tid:k ~work:(Time.ms 10) ~mem_intensity:0.0;
              incr finished;
              if !finished = 4 then Bmcast_engine.Signal.Latch.set latch)
        done;
        Bmcast_engine.Signal.Latch.wait latch;
        Time.diff (Sim.clock ()) t0)
  in
  check_int "fully parallel" (Time.ms 10) finish

let test_sched_contention_counted () =
  let contended =
    on_bare (fun _ rt ->
        let sched = Sched.create rt in
        let latch = Bmcast_engine.Signal.Latch.create () in
        let finished = ref 0 in
        let cores =
          Bmcast_hw.Cpu.num_cores rt.Runtime.machine.Machine.cpu
        in
        for k = 0 to 1 do
          Sim.spawn (fun () ->
              Sched.run sched ~tid:(k * cores) ~work:(Time.ms 5)
                ~mem_intensity:0.0;
              incr finished;
              if !finished = 2 then Bmcast_engine.Signal.Latch.set latch)
        done;
        Bmcast_engine.Signal.Latch.wait latch;
        Sched.contended_acquires sched)
  in
  check_bool "contention observed" true (contended > 0)

(* --- kernbench --- *)

let test_kernbench_calibration () =
  let r = on_bare ~image_gb:8 (fun _ rt -> Kernbench.run rt ()) in
  let s = Time.to_float_s r.Kernbench.elapsed in
  check_bool (Printf.sprintf "elapsed %.1f s in [14, 18]" s) true
    (s > 14.0 && s < 18.0)

let test_kernbench_jobs_scale () =
  let j1, j12 =
    on_bare ~image_gb:8 (fun _ rt ->
        ( Kernbench.run rt ~jobs:1 ~tasks:48 (),
          Kernbench.run rt ~jobs:12 ~tasks:48 () ))
  in
  check_bool "parallel speedup" true
    (Time.to_float_s j12.Kernbench.elapsed
    < Time.to_float_s j1.Kernbench.elapsed /. 4.0)

(* --- ycsb --- *)

let test_ycsb_memcached_calibration () =
  let samples =
    on_bare (fun _ rt ->
        Ycsb.run rt Ycsb.memcached ~duration:(Time.s 60) ())
  in
  let kops, lat = Ycsb.average samples ~between:(Time.s 5, Time.s 60) in
  check_bool (Printf.sprintf "tput %.1f" kops) true (kops > 33.0 && kops < 38.0);
  check_bool (Printf.sprintf "lat %.0f" lat) true (lat > 260.0 && lat < 300.0)

let test_ycsb_cassandra_writes_disk () =
  let ios =
    on_bare (fun _ rt ->
        let before = Bmcast_storage.Disk.bytes_written rt.Runtime.machine.Machine.disk in
        ignore (Ycsb.run rt Ycsb.cassandra ~duration:(Time.s 30) () : Ycsb.sample list);
        Bmcast_storage.Disk.bytes_written rt.Runtime.machine.Machine.disk - before)
  in
  (* ~12 MB/s commit log for 30 s, plus a flush. *)
  check_bool (Printf.sprintf "wrote %d MB" (ios / 1000000)) true
    (ios > 200_000_000)

let test_ycsb_average_window () =
  let samples =
    [ { Ycsb.at = Time.s 1; kops_per_s = 10.0; latency_us = 100.0 };
      { Ycsb.at = Time.s 2; kops_per_s = 20.0; latency_us = 200.0 };
      { Ycsb.at = Time.s 10; kops_per_s = 99.0; latency_us = 999.0 } ]
  in
  let k, l = Ycsb.average samples ~between:(Time.zero, Time.s 5) in
  Alcotest.(check (float 1e-6)) "kops" 15.0 k;
  Alcotest.(check (float 1e-6)) "lat" 150.0 l

(* --- memory --- *)

(* Words per command over 10,000 64-sector commands on a bare-metal
   machine, after 1,000 that bring the scheduler's queues, the scratch
   pool and the disk's extents to their size. A command may allocate
   only the continuations of the processes it suspends (the requester,
   the AHCI service loop, the controller's two sleeps) and the fibers of
   the processes it starts (the ISR, the IDE command executor). The
   commands cycle over 16 LBAs so the written extents stop growing. *)
let words_per_command disk_kind op =
  let env = Stacks.make_env ~image_gb:1 () in
  let m = Stacks.machine env ~name:"guest" ~disk_kind () in
  Bmcast_storage.Disk.fill_with_image m.Machine.disk;
  let count = 64 in
  let buf =
    match op with
    | `Read -> Content.zeroes ~count
    | `Write -> Content.data_sectors ~count
  in
  let words = ref 0.0 in
  Stacks.run env (fun () ->
      let blk = Block_io.attach m in
      let commands n =
        for i = 1 to n do
          let lba = 4096 + ((i land 15) * count) in
          match op with
          | `Read -> Block_io.read_into blk ~lba ~count buf
          | `Write -> Block_io.write blk ~lba ~count buf
        done
      in
      commands 1_000;
      words := Alloc.allocated_words (fun () -> commands 10_000) /. 10_000.0);
  !words

(* A CPU burst under a virtualization tax allocates only its sleep's
   continuation (4 words): the stretch is computed without boxing a
   float, and [Cpu.run] builds no closure. One boxed float more reads
   6. *)
let test_cpu_burst_memory () =
  let words =
    on_bare (fun _ rt ->
        let rt =
          { rt with
            Runtime.cpu =
              Bmcast_platform.Cpu_model.create
                ~tlb_mode:Bmcast_hw.Tlb.Nested_paging ~steal:0.06
                ~exit_overhead:0.01 }
        in
        let bursts n =
          for _ = 1 to n do
            Runtime.cpu_run rt ~core:0 ~work:(Time.us 10) ~mem_intensity:0.3
          done
        in
        bursts 1_000;
        Alloc.allocated_words (fun () -> bursts 10_000) /. 10_000.0)
  in
  check_bool
    (Printf.sprintf "%.1f words per burst, at most 5" words)
    true (words <= 5.0)

let test_command_memory disk_kind op () =
  let words = words_per_command disk_kind op in
  check_bool
    (Printf.sprintf "%.1f words per 64-sector command, at most 32" words)
    true (words <= 32.0)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "guest"
    [ ( "block-io",
        [ tc "ahci roundtrip" `Quick test_block_io_roundtrip_ahci;
          tc "ide roundtrip splits commands" `Quick test_block_io_roundtrip_ide;
          tc "discovers controller via pci" `Quick
            test_block_io_discovers_via_pci;
          tc "ahci rejects a bad count" `Quick
            (test_drivers_reject_bad_count Machine.Ahci_disk "Ahci_driver");
          tc "ide rejects a bad count" `Quick
            (test_drivers_reject_bad_count Machine.Ide_disk "Ide_driver") ] );
      ( "os-boot",
        [ tc "trace deterministic" `Quick test_boot_trace_deterministic;
          tc "trace totals" `Quick test_boot_trace_totals;
          tc "bare boot ~29s" `Slow test_bare_boot_time_calibration ] );
      ( "fio",
        [ tc "read rate calibration" `Quick test_fio_read_rate;
          tc "write slower than read" `Quick test_fio_write_slower_than_read;
          tc "rejects bad block size" `Quick test_fio_rejects_bad_block ] );
      ("ioping", [ tc "latency positive" `Quick test_ioping_latency_positive ]);
      ( "sysbench",
        [ tc "threads monotone" `Quick test_sysbench_threads_monotone;
          tc "memory block scaling" `Quick test_sysbench_memory_block_scaling;
          tc "memory intensity model" `Quick test_memory_intensity_model ] );
      ( "sched",
        [ tc "single thread exact" `Quick test_sched_single_thread_no_overhead;
          tc "two threads timeshare" `Quick test_sched_two_threads_one_core_timeshare;
          tc "distinct cores parallel" `Quick test_sched_threads_on_distinct_cores_parallel;
          tc "contention counted" `Quick test_sched_contention_counted ] );
      ( "kernbench",
        [ tc "calibration ~16s" `Slow test_kernbench_calibration;
          tc "jobs scale" `Slow test_kernbench_jobs_scale ] );
      ( "ycsb",
        [ tc "memcached calibration" `Quick test_ycsb_memcached_calibration;
          tc "cassandra writes disk" `Quick test_ycsb_cassandra_writes_disk;
          tc "average window" `Quick test_ycsb_average_window ] );
      ( "memory",
        [ tc "ahci read_into" `Quick
            (test_command_memory Machine.Ahci_disk `Read);
          tc "ahci write" `Quick (test_command_memory Machine.Ahci_disk `Write);
          tc "ide read_into" `Quick
            (test_command_memory Machine.Ide_disk `Read);
          tc "ide write" `Quick (test_command_memory Machine.Ide_disk `Write);
          tc "cpu burst" `Quick test_cpu_burst_memory ] ) ]
