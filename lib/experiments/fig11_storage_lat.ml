module Sim = Bmcast_engine.Sim
module Time = Bmcast_engine.Time
module Stats = Bmcast_engine.Stats
module Ioping = Bmcast_guest.Ioping
module Vmm = Bmcast_core.Vmm

type result = { label : string; avg_ms : float; p99_ms : float }

let probe label rt =
  let r = Ioping.run rt () in
  { label;
    avg_ms = r.Ioping.avg_ms;
    p99_ms = Stats.Histogram.percentile r.Ioping.latencies 99.0 }

let on_static label make_stack =
  let env = Stacks.make_env ~image_gb:4 () in
  let m = Stacks.machine env ~name:label () in
  let out = ref None in
  Stacks.run env (fun () ->
      let rt = make_stack env m in
      out := Some (probe label rt));
  Option.get !out

let measure () =
  let bare = on_static "Baremetal" (fun env m -> Stacks.bare env m) in
  let deploy =
    let env = Stacks.make_env ~image_gb:8 () in
    let m = Stacks.machine env ~name:"Deploy" () in
    let out = ref None in
    Stacks.run env (fun () ->
        let rt, vmm = Stacks.bmcast env m () in
        rt.Bmcast_platform.Runtime.block_read ~lba:0 ~count:8
          (Bmcast_storage.Content.zeroes ~count:8);
        (* Let the copy cover the probe span (1 GB) so probes measure
           multiplexing delay, not copy-on-read fetches. *)
        while Vmm.progress vmm *. 8.0 < 1.1 do
          Sim.sleep (Time.s 1)
        done;
        out := Some (probe "BMcast deploy" rt));
    Option.get !out
  in
  let devirt =
    let env = Stacks.make_env ~image_gb:1 () in
    let m = Stacks.machine env ~name:"Devirt" () in
    let out = ref None in
    Stacks.run env (fun () ->
        let rt, vmm = Stacks.bmcast env m () in
        rt.Bmcast_platform.Runtime.block_read ~lba:0 ~count:8
          (Bmcast_storage.Content.zeroes ~count:8);
        Vmm.wait_devirtualized vmm;
        out := Some (probe "BMcast devirt" rt));
    Option.get !out
  in
  let kvm = on_static "KVM/Local" (fun env m -> fst (Stacks.kvm_local env m)) in
  [ bare; deploy; devirt; kvm ]

let run () =
  Report.section "Figure 11: storage latency (ioping, 4 KB random reads)";
  let results = measure () in
  List.iter
    (fun r ->
      Report.row ~label:(r.label ^ " avg") ~units:"ms" r.avg_ms;
      Report.row ~label:(r.label ^ " p99") ~units:"ms" r.p99_ms)
    results;
  let find l = List.find (fun r -> r.label = l) results in
  Report.row ~label:"deploy blocking overhead" ~paper:4.3 ~units:"ms"
    ((find "BMcast deploy").avg_ms -. (find "Baremetal").avg_ms);
  Report.row ~label:"devirt overhead" ~paper:0.0 ~units:"ms"
    ((find "BMcast devirt").avg_ms -. (find "Baremetal").avg_ms)
