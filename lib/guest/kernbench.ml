module Sim = Bmcast_engine.Sim
module Time = Bmcast_engine.Time
module Signal = Bmcast_engine.Signal
module Content = Bmcast_storage.Content
module Runtime = Bmcast_platform.Runtime

type result = { elapsed : Time.span; tasks : int }

(* Per compile unit: ~60 KB of source plus a handful of header reads
   scattered through the source tree, ~450 ms of compiler CPU, ~30 KB
   object written.  384 units x 0.45 s ~= 173 core-seconds, i.e. ~15 s
   elapsed on 12 cores plus I/O. *)
let src_sectors = 120
let obj_sectors = 60
let header_reads = 2
let header_sectors = 8
let header_span_sectors = 200 * 2048  (* headers live in a 200 MB region *)
let src_lba = 8 * 1024 * 1024  (* sources start 4 GB into the disk *)
let cpu_per_task = Time.ms 450
let compile_mem_intensity = 0.03

let run runtime ?(jobs = 12) ?(tasks = 384) () =
  if jobs <= 0 then invalid_arg "Kernbench.run: jobs";
  let machine = runtime.Runtime.machine in
  let prng =
    Bmcast_engine.Prng.split
      (Sim.rand machine.Bmcast_platform.Machine.sim)
  in
  let next = ref 0 in
  let done_jobs = ref 0 in
  let all_done = Signal.Latch.create () in
  let t0 = Sim.clock () in
  let hdr_base = src_lba - header_span_sectors in
  let obj_base = src_lba + (tasks * src_sectors) in
  for j = 0 to jobs - 1 do
    Sim.spawn ~name:(Printf.sprintf "cc-job%d" j) (fun () ->
        let buf = Content.zeroes ~count:(max src_sectors header_sectors) in
        let rec loop () =
          let i = !next in
          if i < tasks then begin
            next := i + 1;
            runtime.Runtime.block_read ~lba:(src_lba + (i * src_sectors))
              ~count:src_sectors buf;
            for _ = 1 to header_reads do
              let lba =
                hdr_base
                + Bmcast_engine.Prng.int prng (header_span_sectors - header_sectors)
              in
              runtime.Runtime.block_read ~lba ~count:header_sectors buf
            done;
            Runtime.cpu_run runtime ~core:(j mod 12) ~work:cpu_per_task
              ~mem_intensity:compile_mem_intensity;
            runtime.Runtime.block_write
              ~lba:(obj_base + (i * obj_sectors))
              ~count:obj_sectors
              (Content.data_sectors ~count:obj_sectors);
            loop ()
          end
        in
        loop ();
        incr done_jobs;
        if !done_jobs = jobs then Signal.Latch.set all_done)
  done;
  Signal.Latch.wait all_done;
  { elapsed = Time.diff (Sim.clock ()) t0; tasks }
