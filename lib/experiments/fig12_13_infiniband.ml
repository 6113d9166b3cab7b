module Sim = Bmcast_engine.Sim
module Time = Bmcast_engine.Time
module Ib = Bmcast_net.Ib
module Kvm = Bmcast_baselines.Kvm

type result = { label : string; bw_gb_s : float; lat_us : float }

let one ~label ~overhead ~bytes ~iterations =
  let sim = Sim.create () in
  let ib = Ib.create sim in
  let a = Ib.attach ib ~name:"sender" and b = Ib.attach ib ~name:"receiver" in
  Ib.set_op_overhead a overhead;
  let bw = ref 0.0 and lat = ref 0.0 in
  Sim.spawn_at sim Time.zero (fun () ->
      (* ib_rdma_bw: pipelined posts. *)
      let remaining = ref iterations in
      let t0 = Sim.clock () in
      let done_ = Bmcast_engine.Signal.Latch.create () in
      for _ = 1 to iterations do
        Ib.post a ~dst:b ~bytes ~on_complete:(fun () ->
            decr remaining;
            if !remaining = 0 then Bmcast_engine.Signal.Latch.set done_)
      done;
      Bmcast_engine.Signal.Latch.wait done_;
      bw :=
        float_of_int (iterations * bytes)
        /. Time.to_float_s (Time.diff (Sim.clock ()) t0)
        /. 1e9;
      (* ib_rdma_lat: synchronous ping. *)
      let t1 = Sim.clock () in
      for _ = 1 to iterations do
        Ib.rdma a ~dst:b ~bytes
      done;
      lat :=
        Time.to_float_us (Time.diff (Sim.clock ()) t1)
        /. float_of_int iterations);
  Sim.run sim;
  { label; bw_gb_s = !bw; lat_us = !lat }

let measure ?(iterations = 1000) () =
  let bytes = 65536 in
  [ one ~label:"Baremetal" ~overhead:0 ~bytes ~iterations;
    one ~label:"BMcast deploy" ~overhead:(Time.ns 80) ~bytes ~iterations;
    one ~label:"BMcast devirt" ~overhead:0 ~bytes ~iterations;
    one ~label:"KVM/Direct" ~overhead:Kvm.ib_op_overhead ~bytes ~iterations ]

let run () =
  Report.section "Figures 12-13: InfiniBand RDMA (64 KB x 1000)";
  let results = measure () in
  let bare = List.hd results in
  List.iter
    (fun r ->
      Report.row ~label:(r.label ^ " throughput") ~units:"GB/s" r.bw_gb_s;
      Report.row ~label:(r.label ^ " latency") ~units:"us" r.lat_us)
    results;
  let find l = List.find (fun r -> r.label = l) results in
  Report.row ~label:"KVM latency overhead" ~paper:23.6 ~units:"%"
    (((find "KVM/Direct").lat_us /. bare.lat_us -. 1.0) *. 100.0);
  Report.row ~label:"BMcast deploy latency overhead" ~paper:1.0 ~units:"%"
    (((find "BMcast deploy").lat_us /. bare.lat_us -. 1.0) *. 100.0);
  Report.row ~label:"throughput spread (max-min)" ~paper:0.0 ~units:"GB/s"
    (List.fold_left (fun acc r -> Float.max acc r.bw_gb_s) 0.0 results
    -. List.fold_left (fun acc r -> Float.min acc r.bw_gb_s) infinity results)
