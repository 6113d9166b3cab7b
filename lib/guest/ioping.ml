module Sim = Bmcast_engine.Sim
module Time = Bmcast_engine.Time
module Prng = Bmcast_engine.Prng
module Stats = Bmcast_engine.Stats
module Content = Bmcast_storage.Content
module Runtime = Bmcast_platform.Runtime
module Machine = Bmcast_platform.Machine

type result = { latencies : Stats.Histogram.t; avg_ms : float }

(* 4 KB probes over a 1 MB working set. *)
let sectors = 8
let span_sectors = 2048
let think_time = Time.ms 100

let run runtime ?(requests = 100) () =
  let machine = runtime.Runtime.machine in
  let prng = Prng.split (Sim.rand machine.Machine.sim) in
  let latencies = Stats.Histogram.create () in
  let probe = Content.zeroes ~count:sectors in
  for _ = 1 to requests do
    let lba = Prng.int prng (span_sectors - sectors) in
    let t0 = Sim.clock () in
    runtime.Runtime.block_read ~lba ~count:sectors probe;
    Stats.Histogram.add latencies
      (Time.to_float_ms (Time.diff (Sim.clock ()) t0));
    Sim.sleep think_time
  done;
  { latencies; avg_ms = Stats.Histogram.mean latencies }
