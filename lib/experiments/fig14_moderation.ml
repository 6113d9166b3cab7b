module Sim = Bmcast_engine.Sim
module Time = Bmcast_engine.Time
module Fio = Bmcast_guest.Fio
module Params = Bmcast_core.Params
module Vmm = Bmcast_core.Vmm

type point = { interval_label : string; guest_mb_s : float; vmm_mb_s : float }

(* The paper's full sweep: 1 s down to 1 us, then full speed. *)
let default_intervals =
  [ ("1s", Time.s 1);
    ("100ms", Time.ms 100);
    ("10ms", Time.ms 10);
    ("1ms", Time.ms 1);
    ("100us", Time.us 100);
    ("10us", Time.us 10);
    ("1us", Time.us 1);
    ("full-speed", 0) ]

let mb = 2048

let one ~guest_op (interval_label, interval) =
  let env = Stacks.make_env ~image_gb:8 () in
  let m = Stacks.machine env ~name:"node" () in
  let params =
    { (Stacks.bmcast_params env) with
      Params.write_interval = interval;
      (* isolate the interval knob: never suspend on guest activity *)
      guest_io_threshold = infinity }
  in
  let out = ref (0.0, 0.0) in
  Stacks.run env (fun () ->
      let rt, vmm = Stacks.bmcast env m ~params () in
      (* Warm the guest's measurement region through copy-on-read so
         guest reads hit the local disk. *)
      (match guest_op with
      | `Read ->
        let buf = Bmcast_storage.Content.zeroes ~count:2048 in
        let rec warm lba =
          if lba < 320 * mb then begin
            rt.Bmcast_platform.Runtime.block_read ~lba ~count:2048 buf;
            warm (lba + 2048)
          end
        in
        warm 0
      | `Write ->
        rt.Bmcast_platform.Runtime.block_read ~lba:0 ~count:8
          (Bmcast_storage.Content.zeroes ~count:8));
      (* Give the redirect write-backs a moment to drain. *)
      Sim.sleep (Time.s 2);
      let bg0 = (Vmm.totals vmm).Vmm.background_bytes in
      let t0 = Sim.clock () in
      let r =
        match guest_op with
        | `Read -> Fio.seq_read rt ~total_bytes:(300 * 1024 * 1024) ()
        | `Write ->
          Fio.seq_write rt ~total_bytes:(300 * 1024 * 1024)
            ~start_lba:(5120 * mb) ()
      in
      let elapsed = Time.to_float_s (Time.diff (Sim.clock ()) t0) in
      let bg1 = (Vmm.totals vmm).Vmm.background_bytes in
      out :=
        ( r.Fio.throughput_mb_s,
          float_of_int (bg1 - bg0) /. elapsed /. 1e6 ));
  let guest_mb_s, vmm_mb_s = !out in
  { interval_label; guest_mb_s; vmm_mb_s }

let measure ?(intervals = default_intervals) ~guest_op () =
  List.map (one ~guest_op) intervals

let run () =
  Report.section "Figure 14: background-copy moderation (VMM write interval)";
  Report.note "(a) guest sequential READ vs VMM writes";
  Report.series_header [ "guest MB/s"; "VMM MB/s"; "sum" ];
  let reads = measure ~guest_op:`Read () in
  List.iter
    (fun p ->
      Report.series_row p.interval_label
        [ p.guest_mb_s; p.vmm_mb_s; p.guest_mb_s +. p.vmm_mb_s ])
    reads;
  Report.note "(b) guest sequential WRITE vs VMM writes";
  Report.series_header [ "guest MB/s"; "VMM MB/s"; "sum" ];
  let writes = measure ~guest_op:`Write () in
  List.iter
    (fun p ->
      Report.series_row p.interval_label
        [ p.guest_mb_s; p.vmm_mb_s; p.guest_mb_s +. p.vmm_mb_s ])
    writes;
  (* Shape assertions the paper makes in prose. *)
  let first = List.hd reads and last = List.nth reads (List.length reads - 1) in
  Report.row ~label:"guest read loss 1s -> full-speed" ~units:"MB/s"
    (first.guest_mb_s -. last.guest_mb_s);
  Report.row ~label:"VMM gain 1s -> full-speed" ~units:"MB/s"
    (last.vmm_mb_s -. first.vmm_mb_s)
