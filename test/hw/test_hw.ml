(* Tests for the hardware substrate. *)

module Sim = Bmcast_engine.Sim
module Time = Bmcast_engine.Time
module Mmio = Bmcast_hw.Mmio
module Pio = Bmcast_hw.Pio
module Irq = Bmcast_hw.Irq
module Cpu = Bmcast_hw.Cpu
module Tlb = Bmcast_hw.Tlb
module Firmware = Bmcast_hw.Firmware
module Memmap = Bmcast_hw.Memmap
module Pci = Bmcast_hw.Pci

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_reg = Alcotest.(check int)

(* --- Mmio --- *)

let mem_device () =
  let store = Hashtbl.create 8 in
  let handler =
    { Mmio.read = (fun off -> Option.value (Hashtbl.find_opt store off) ~default:0);
      write = (fun off v -> Hashtbl.replace store off v) }
  in
  (store, handler)

let test_mmio_read_write () =
  let m = Mmio.create () in
  let _, h = mem_device () in
  Mmio.map m ~base:0x1000 ~size:0x100 h;
  Mmio.write m 0x1010 7;
  check_reg "readback" 7 (Mmio.read m 0x1010);
  check_reg "other offset" 0 (Mmio.read m 0x1020)

let test_mmio_unmapped_raises () =
  let m = Mmio.create () in
  check_bool "raises" true
    (try
       ignore (Mmio.read m 0x5000 : int);
       false
     with Invalid_argument _ -> true)

let test_mmio_overlap_rejected () =
  let m = Mmio.create () in
  let _, h = mem_device () in
  Mmio.map m ~base:0x1000 ~size:0x100 h;
  check_bool "overlap" true
    (try
       Mmio.map m ~base:0x10F0 ~size:0x100 h;
       false
     with Invalid_argument _ -> true)

let test_mmio_map_unmap_remap () =
  let m = Mmio.create () in
  let store_a, h_a = mem_device () in
  let _, h_b = mem_device () in
  Mmio.map m ~base:0x1000 ~size:0x100 h_a;
  Mmio.write m 0x1010 41;
  check_reg "first mapping serves" 41 (Mmio.read m 0x1010);
  Mmio.unmap m ~base:0x1000;
  check_bool "unmapped region gone" true
    (try
       ignore (Mmio.read m 0x1010 : int);
       false
     with Invalid_argument _ -> true);
  (* Remap the same base with a different device: the new handler must
     serve, with no residue from the old region. *)
  Mmio.map m ~base:0x1000 ~size:0x100 h_b;
  check_reg "remapped device is fresh" 0 (Mmio.read m 0x1010);
  Mmio.write m 0x1010 7;
  check_reg "remapped device serves" 7 (Mmio.read m 0x1010);
  check_int "old device untouched by remap write" 41
    (Option.value (Hashtbl.find_opt store_a 0x10) ~default:0);
  (* Unmapping a base that was never mapped (or already unmapped) is a
     teardown bug, not a no-op. *)
  check_bool "unmap unknown base raises" true
    (try
       Mmio.unmap m ~base:0x9000;
       false
     with Invalid_argument _ -> true);
  Mmio.unmap m ~base:0x1000;
  check_bool "double unmap raises" true
    (try
       Mmio.unmap m ~base:0x1000;
       false
     with Invalid_argument _ -> true)

let test_mmio_interpose_observes () =
  let m = Mmio.create () in
  let _, h = mem_device () in
  Mmio.map m ~base:0x1000 ~size:0x100 h;
  let seen = ref [] in
  Mmio.interpose m ~base:0x1000
    { on_read =
        (fun ~next off ->
          seen := `R off :: !seen;
          next off);
      on_write =
        (fun ~next off v ->
          seen := `W off :: !seen;
          next off v) };
  Mmio.write m 0x1004 9;
  check_reg "forwarded" 9 (Mmio.read m 0x1004);
  Alcotest.(check int) "two traps" 2 (Mmio.trapped_accesses m);
  Alcotest.(check bool) "order" true (!seen = [ `R 4; `W 4 ])

let test_mmio_interpose_can_answer () =
  let m = Mmio.create () in
  let _, h = mem_device () in
  Mmio.map m ~base:0 ~size:0x10 h;
  Mmio.interpose m ~base:0
    { on_read = (fun ~next:_ _ -> 0xFF);
      on_write = (fun ~next:_ _ _ -> () (* swallow *)) };
  Mmio.write m 0x0 1;
  check_reg "emulated read" 0xFF (Mmio.read m 0x0)

let test_mmio_devirtualize () =
  let m = Mmio.create () in
  let _, h = mem_device () in
  Mmio.map m ~base:0 ~size:0x10 h;
  Mmio.interpose m ~base:0
    { on_read = (fun ~next off -> next off);
      on_write = (fun ~next off v -> next off v) };
  Mmio.write m 0x0 1;
  let traps_before = Mmio.trapped_accesses m in
  Mmio.remove_interposer m ~base:0;
  Mmio.write m 0x0 2;
  ignore (Mmio.read m 0x0 : int);
  check_int "zero traps after devirt" traps_before (Mmio.trapped_accesses m);
  check_reg "direct access works" 2 (Mmio.read m 0x0)

let test_mmio_double_interpose_rejected () =
  let m = Mmio.create () in
  let _, h = mem_device () in
  Mmio.map m ~base:0 ~size:0x10 h;
  let ix =
    { Mmio.on_read = (fun ~next off -> next off);
      on_write = (fun ~next off v -> next off v) }
  in
  Mmio.interpose m ~base:0 ix;
  check_bool "second rejected" true
    (try
       Mmio.interpose m ~base:0 ix;
       false
     with Invalid_argument _ -> true)

(* --- Pio --- *)

let test_pio_basic () =
  let p = Pio.create () in
  let regs = Array.make 8 0 in
  Pio.map p ~base:0x1F0 ~count:8
    { Pio.inp = (fun off -> regs.(off)); outp = (fun off v -> regs.(off) <- v) };
  Pio.outp p 0x1F2 5;
  check_int "readback" 5 (Pio.inp p 0x1F2);
  check_int "reg array" 5 regs.(2)

let test_pio_interpose_and_remove () =
  let p = Pio.create () in
  let regs = Array.make 4 0 in
  Pio.map p ~base:0 ~count:4
    { Pio.inp = (fun off -> regs.(off)); outp = (fun off v -> regs.(off) <- v) };
  Pio.interpose p ~base:0
    { on_in = (fun ~next off -> next off + 100);
      on_out = (fun ~next off v -> next off (v * 2)) };
  Pio.outp p 1 3;
  check_int "doubled" 106 (Pio.inp p 1);
  Pio.remove_interposer p ~base:0;
  check_int "direct" 6 (Pio.inp p 1);
  check_int "traps counted" 2 (Pio.trapped_accesses p)

(* --- Irq --- *)

let test_irq_delivery () =
  let sim = Sim.create () in
  let irq = Irq.create sim in
  let fired_at = ref Time.zero in
  Irq.register irq ~vec:14 (fun () -> fired_at := Sim.now sim);
  Sim.spawn_at sim Time.zero (fun () ->
      Sim.sleep (Time.ms 1);
      Irq.raise_irq irq ~vec:14);
  Sim.run sim;
  check_int "delivered after latency"
    (Time.add (Time.ms 1) Irq.delivery_latency)
    !fired_at;
  check_int "count" 1 (Irq.delivered irq ~vec:14)

let test_irq_spurious () =
  let sim = Sim.create () in
  let irq = Irq.create sim in
  Irq.raise_irq irq ~vec:99;
  Sim.run sim;
  check_int "spurious counted" 1 (Irq.spurious irq)

let test_irq_unregister () =
  let sim = Sim.create () in
  let irq = Irq.create sim in
  Irq.register irq ~vec:5 (fun () -> Alcotest.fail "should not fire");
  Irq.unregister irq ~vec:5;
  Irq.raise_irq irq ~vec:5;
  Sim.run sim;
  check_int "spurious" 1 (Irq.spurious irq)

let test_irq_isr_failure_named () =
  let sim = Sim.create () in
  let irq = Irq.create sim in
  Irq.register irq ~vec:14 (fun () -> failwith "isr");
  Irq.raise_irq irq ~vec:14;
  match Sim.run sim with
  | () -> Alcotest.fail "a raising ISR must fail the run"
  | exception Sim.Process_failure (name, Failure _) ->
    Alcotest.(check string) "process name" "isr-vec14" name

(* Deliveries closer together than the ISR's run overlap: each runs on
   its own fiber. *)
let test_irq_overlapping_isrs () =
  let sim = Sim.create () in
  let irq = Irq.create sim in
  let running = ref 0 and most = ref 0 and finished = ref [] in
  Irq.register irq ~vec:14 (fun () ->
      incr running;
      most := max !most !running;
      Sim.sleep (Time.us 10);
      decr running;
      finished := Sim.clock () :: !finished);
  Sim.schedule sim Time.zero (fun () -> Irq.raise_irq irq ~vec:14);
  Sim.schedule sim (Time.us 1) (fun () -> Irq.raise_irq irq ~vec:14);
  Sim.run sim;
  check_int "two ISRs at once" 2 !most;
  Alcotest.(check (list int))
    "each ran its 10 us"
    [ Time.add Irq.delivery_latency (Time.us 10);
      Time.add Irq.delivery_latency (Time.us 11) ]
    (List.rev !finished);
  check_int "delivered" 2 (Irq.delivered irq ~vec:14)

let test_irq_vectors () =
  let sim = Sim.create () in
  let irq = Irq.create sim in
  check_int "never raised" 0 (Irq.delivered irq ~vec:7);
  Irq.register irq ~vec:3 ignore;
  check_int "registered, never raised" 0 (Irq.delivered irq ~vec:3);
  Irq.raise_irq irq ~vec:3;
  check_int "raised once" 1 (Irq.delivered irq ~vec:3);
  check_int "past the highest vector" 0 (Irq.delivered irq ~vec:200);
  let rejects what f =
    check_bool what true
      (match f () with () -> false | exception Invalid_argument _ -> true)
  in
  rejects "register" (fun () -> Irq.register irq ~vec:(-1) ignore);
  rejects "unregister" (fun () -> Irq.unregister irq ~vec:(-1));
  rejects "raise" (fun () -> Irq.raise_irq irq ~vec:(-1));
  rejects "delivered" (fun () -> ignore (Irq.delivered irq ~vec:(-1) : int))

(* --- Cpu --- *)

let test_cpu_run_consumes_time () =
  let sim = Sim.create () in
  let cpu = Cpu.create sim ~cores:2 in
  Sim.spawn_at sim Time.zero (fun () ->
      Cpu.run (Cpu.core cpu 0) (Time.ms 5);
      check_int "elapsed" (Time.ms 5) (Sim.clock ()));
  Sim.run sim

let test_cpu_preemption_stalls () =
  let sim = Sim.create () in
  let cpu = Cpu.create sim ~cores:1 in
  Cpu.enable_interference cpu;
  let c = Cpu.core cpu 0 in
  (* Steal the core from 2 ms to 6 ms. *)
  Sim.spawn_at sim (Time.ms 2) (fun () ->
      Cpu.set_unavailable_until c (Time.ms 6));
  let finished_at = ref Time.zero in
  Sim.spawn_at sim Time.zero (fun () ->
      Cpu.run c (Time.ms 5);
      finished_at := Sim.clock ());
  Sim.run sim;
  (* 5 ms of work + ~4 ms stall; slice granularity may add <= 1 ms. *)
  check_bool "stalled" true (!finished_at >= Time.ms 9);
  check_bool "not over-stalled" true (!finished_at <= Time.ms 11);
  check_bool "stall accounted" true (Cpu.stall_time c >= Time.ms 3)

let test_cpu_unavailable_blocks_start () =
  let sim = Sim.create () in
  let cpu = Cpu.create sim ~cores:1 in
  Cpu.enable_interference cpu;
  let c = Cpu.core cpu 0 in
  Cpu.set_unavailable_until c (Time.ms 4);
  let finished_at = ref Time.zero in
  Sim.spawn_at sim Time.zero (fun () ->
      Cpu.run c (Time.ms 1);
      finished_at := Sim.clock ());
  Sim.run sim;
  check_int "waited for availability" (Time.ms 5) !finished_at

let test_cpu_exit_accounting () =
  let sim = Sim.create () in
  let cpu = Cpu.create sim ~cores:1 in
  Cpu.record_exit cpu Cpu.Mmio ~cost:(Time.us 1);
  Cpu.record_exit cpu Cpu.Mmio ~cost:(Time.us 1);
  Cpu.record_exit cpu Cpu.Cpuid ~cost:(Time.us 2);
  check_int "mmio exits" 2 (Cpu.exits cpu Cpu.Mmio);
  check_int "total" 3 (Cpu.total_exits cpu);
  check_int "time" (Time.us 4) (Cpu.exit_time cpu);
  Cpu.reset_exit_counters cpu;
  check_int "reset" 0 (Cpu.total_exits cpu);
  (* Each reason counts on its own: the i-th is recorded i + 1 times. *)
  let reasons =
    Cpu.[ Pio; Mmio; Cpuid; Preempt_timer; Control_reg; Init_sipi; Other ]
  in
  List.iteri
    (fun i r ->
      for _ = 0 to i do
        Cpu.record_exit cpu r ~cost:0
      done)
    reasons;
  List.iteri (fun i r -> check_int "per reason" (i + 1) (Cpu.exits cpu r)) reasons;
  check_int "total per reason" 28 (Cpu.total_exits cpu)

let test_cpu_bad_core () =
  let sim = Sim.create () in
  let cpu = Cpu.create sim ~cores:2 in
  check_bool "raises" true
    (try
       ignore (Cpu.core cpu 2 : Cpu.core);
       false
     with Invalid_argument _ -> true)

(* --- Tlb --- *)

let test_tlb_native_no_slowdown () =
  Alcotest.(check (float 1e-9)) "native" 1.0 (Tlb.slowdown Tlb.Native ~mem_intensity:1.0)

let test_tlb_nested_scales_with_intensity () =
  let low = Tlb.slowdown Tlb.Nested_paging ~mem_intensity:0.1 in
  let high = Tlb.slowdown Tlb.Nested_paging ~mem_intensity:1.0 in
  check_bool "monotone" true (low < high);
  Alcotest.(check (float 1e-9)) "nested tax" 1.035 high

let test_tlb_host_pollution_worse () =
  let bmcast = Tlb.slowdown Tlb.Nested_paging ~mem_intensity:1.0 in
  let kvm = Tlb.slowdown Tlb.Nested_paging_host ~mem_intensity:1.0 in
  check_bool "kvm worse" true (kvm > bmcast);
  Alcotest.(check (float 1e-9)) "paper 35%" 1.35 kvm

let test_tlb_bad_intensity () =
  check_bool "raises" true
    (try
       ignore (Tlb.slowdown Tlb.Native ~mem_intensity:1.5 : float);
       false
     with Invalid_argument _ -> true)

(* --- Firmware --- *)

let test_firmware_post_time () =
  let sim = Sim.create () in
  Sim.spawn_at sim Time.zero (fun () ->
      Firmware.post Firmware.default;
      check_int "133s POST" (Time.s 133) (Sim.clock ()));
  Sim.run sim

let test_firmware_pxe_time_scales () =
  let p = Firmware.default in
  let small = Firmware.pxe_load_span p ~bytes_len:1_000_000 in
  let large = Firmware.pxe_load_span p ~bytes_len:100_000_000 in
  (* Payload transfer time (beyond the fixed DHCP handshake) scales
     linearly with size. *)
  let payload t = Time.diff t p.Firmware.pxe_dhcp_time in
  check_int "linear in size" (Time.mul (payload small) 100) (payload large)

(* --- Memmap --- *)

let test_memmap_reserve_release () =
  let mm = Memmap.create ~total_bytes:(1 lsl 30) in
  let before = Memmap.usable_bytes mm in
  let vmm = Memmap.reserve_vmm mm ~size:(128 * 1024 * 1024) in
  check_int "reserved size" (128 * 1024 * 1024) (Memmap.vmm_reserved_bytes mm);
  check_int "usable shrank" (before - (128 * 1024 * 1024)) (Memmap.usable_bytes mm);
  check_bool "region kind" true (Memmap.kind_at mm vmm.Memmap.base = Memmap.Vmm_reserved);
  Memmap.release_vmm mm;
  check_int "restored" before (Memmap.usable_bytes mm);
  check_int "nothing reserved" 0 (Memmap.vmm_reserved_bytes mm)

let test_memmap_reserve_too_big () =
  let mm = Memmap.create ~total_bytes:(1 lsl 20) in
  check_bool "raises" true
    (try
       ignore (Memmap.reserve_vmm mm ~size:(1 lsl 30) : Memmap.entry);
       false
     with Invalid_argument _ -> true)

let test_memmap_entries_sorted_coalesced () =
  let mm = Memmap.create ~total_bytes:(1 lsl 30) in
  ignore (Memmap.reserve_vmm mm ~size:4096 : Memmap.entry);
  let es = Memmap.entries mm in
  let rec sorted = function
    | a :: (b :: _ as rest) ->
      a.Memmap.base + a.Memmap.size <= b.Memmap.base && sorted rest
    | _ -> true
  in
  check_bool "sorted non-overlapping" true (sorted es)

(* --- Pci --- *)

let nic_dev bdf =
  { Pci.bdf; vendor_id = 0x8086; device_id = 0x10D3; class_code = 0x020000;
    bars = [ (0xF000_0000, 0x20000) ] }

let test_pci_scan_order () =
  let p = Pci.create () in
  Pci.add p (nic_dev { Pci.bus = 1; dev = 0; fn = 0 });
  Pci.add p (nic_dev { Pci.bus = 0; dev = 3; fn = 0 });
  let bdfs = List.map (fun d -> d.Pci.bdf) (Pci.scan p) in
  Alcotest.(check bool) "sorted" true
    (bdfs = [ { Pci.bus = 0; dev = 3; fn = 0 }; { Pci.bus = 1; dev = 0; fn = 0 } ])

let test_pci_hide_unhide () =
  let p = Pci.create () in
  let bdf = { Pci.bus = 0; dev = 3; fn = 0 } in
  Pci.add p (nic_dev bdf);
  check_bool "visible" true (Pci.find p bdf <> None);
  Pci.hide p bdf;
  check_bool "hidden from find" true (Pci.find p bdf = None);
  check_int "hidden from scan" 0 (List.length (Pci.scan p));
  Pci.unhide p bdf;
  check_bool "visible again" true (Pci.find p bdf <> None)

let test_pci_duplicate_rejected () =
  let p = Pci.create () in
  let bdf = { Pci.bus = 0; dev = 1; fn = 0 } in
  Pci.add p (nic_dev bdf);
  check_bool "raises" true
    (try
       Pci.add p (nic_dev bdf);
       false
     with Invalid_argument _ -> true)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "hw"
    [ ( "mmio",
        [ tc "read write" `Quick test_mmio_read_write;
          tc "unmapped raises" `Quick test_mmio_unmapped_raises;
          tc "overlap rejected" `Quick test_mmio_overlap_rejected;
          tc "map/unmap/remap round-trip" `Quick test_mmio_map_unmap_remap;
          tc "interpose observes" `Quick test_mmio_interpose_observes;
          tc "interpose can answer" `Quick test_mmio_interpose_can_answer;
          tc "devirtualize" `Quick test_mmio_devirtualize;
          tc "double interpose rejected" `Quick test_mmio_double_interpose_rejected ] );
      ( "pio",
        [ tc "basic" `Quick test_pio_basic;
          tc "interpose and remove" `Quick test_pio_interpose_and_remove ] );
      ( "irq",
        [ tc "delivery" `Quick test_irq_delivery;
          tc "spurious" `Quick test_irq_spurious;
          tc "unregister" `Quick test_irq_unregister;
          tc "isr failure named" `Quick test_irq_isr_failure_named;
          tc "overlapping isrs" `Quick test_irq_overlapping_isrs;
          tc "vectors" `Quick test_irq_vectors ] );
      ( "cpu",
        [ tc "run consumes time" `Quick test_cpu_run_consumes_time;
          tc "preemption stalls" `Quick test_cpu_preemption_stalls;
          tc "unavailable blocks start" `Quick test_cpu_unavailable_blocks_start;
          tc "exit accounting" `Quick test_cpu_exit_accounting;
          tc "bad core" `Quick test_cpu_bad_core ] );
      ( "tlb",
        [ tc "native" `Quick test_tlb_native_no_slowdown;
          tc "nested scales" `Quick test_tlb_nested_scales_with_intensity;
          tc "host pollution worse" `Quick test_tlb_host_pollution_worse;
          tc "bad intensity" `Quick test_tlb_bad_intensity ] );
      ( "firmware",
        [ tc "post time" `Quick test_firmware_post_time;
          tc "pxe scales" `Quick test_firmware_pxe_time_scales ] );
      ( "memmap",
        [ tc "reserve release" `Quick test_memmap_reserve_release;
          tc "reserve too big" `Quick test_memmap_reserve_too_big;
          tc "entries sorted" `Quick test_memmap_entries_sorted_coalesced ] );
      ( "pci",
        [ tc "scan order" `Quick test_pci_scan_order;
          tc "hide unhide" `Quick test_pci_hide_unhide;
          tc "duplicate rejected" `Quick test_pci_duplicate_rejected ] ) ]
