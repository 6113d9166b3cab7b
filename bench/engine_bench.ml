(* Engine hot-path benchmark, reported as events/sec and minor-heap
   words allocated per event. Rows:

   - heap churn: the engine's event queue ([Heap], the structure [Sim]
     runs on) at 32k pending events, far deeper than any simulation
     here reaches; reported, never gated;
   - wheel churn: the same access pattern on [Timer_wheel], the
     structure the engine has retired; gated until it is deleted;
   - full sim: 20k processes sleeping through the effect handlers;
   - fleet: the 250-client deployment, the whole stack's hot path.

   [run] writes the snapshot as BENCH_engine.json (the committed
   baseline CI diffs against); [check] re-measures and fails when the
   fresh wheel-churn, full-sim or fleet throughput regresses more than
   25% against the committed snapshot. *)

open Bmcast_experiments
module Heap = Bmcast_engine.Heap
module Wheel = Bmcast_engine.Timer_wheel
module Prng = Bmcast_engine.Prng
module Sim = Bmcast_engine.Sim
module Time = Bmcast_engine.Time

type rate = { events_per_sec : float; minor_words_per_event : float }

(* Wall-clock + minor-allocation cost of [f], amortized over [ops]
   events. [Gc.minor] first so the allocation delta starts from an
   empty minor heap. *)
let measure ~ops f =
  Gc.minor ();
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  f ();
  let dt = Unix.gettimeofday () -. t0 in
  let dw = Gc.minor_words () -. w0 in
  { events_per_sec = (if dt > 0.0 then float_of_int ops /. dt else infinity);
    minor_words_per_event = dw /. float_of_int ops }

(* Steady-state churn: [pending] timers armed, then [ops] cycles of
   pop-min / re-arm at a random future offset — the event-queue access
   pattern of a large fleet where every pop schedules a successor. *)
let churn_pending = 32_768
let churn_ops = 2_000_000

let heap_churn () =
  let h = Heap.create () in
  let prng = Prng.create 11 in
  for _ = 1 to churn_pending do
    Heap.push h (Prng.int prng 1_000_000) ()
  done;
  measure ~ops:churn_ops (fun () ->
      for _ = 1 to churn_ops do
        let t = Heap.next_time h in
        Heap.pop_exn h;
        Heap.push h (t + 1 + Prng.int prng 1_000_000) ()
      done)

let wheel_churn () =
  let w = Wheel.create ~dummy:() () in
  let prng = Prng.create 11 in
  for _ = 1 to churn_pending do
    ignore (Wheel.push w (Prng.int prng 1_000_000) () : Wheel.token)
  done;
  measure ~ops:churn_ops (fun () ->
      for _ = 1 to churn_ops do
        let t = Wheel.next_time w in
        Wheel.pop_exn w;
        ignore (Wheel.push w (t + 1 + Prng.int prng 1_000_000) () : Wheel.token)
      done)

(* Whole-engine throughput: [procs] concurrent processes, each a chain
   of [sleeps_per_proc] random sleeps — every event crosses the full
   effects-handler path (perform, continuation park, heap, resume). *)
let sim_procs = 20_000
let sim_sleeps_per_proc = 100

let sim_workload () =
  let sim = Sim.create ~seed:5 () in
  let prng = Prng.create 17 in
  for i = 0 to sim_procs - 1 do
    Sim.spawn_at sim
      ~name:(if i = 0 then "worker" else "w")
      Time.zero
      (fun () ->
        for _ = 1 to sim_sleeps_per_proc do
          Sim.sleep (Time.us (1 + Prng.int prng 5_000))
        done)
  done;
  let rate = measure ~ops:1 (fun () -> Sim.run sim) in
  let events = Sim.events_executed sim in
  let scale = 1.0 /. float_of_int events in
  ( events,
    { events_per_sec = rate.events_per_sec /. scale;
      minor_words_per_event = rate.minor_words_per_event *. scale } )

(* Fleet workload: the real full-stack hot path (AoE frames through the
   fabric, MMIO polling through the mediators, scratch buffers through
   the proto layer) at cloud-burst scale, with the allocation profiler
   attributing the scoped categories. This is the number the
   whole-stack allocation diet is accountable to; the synthetic [sim]
   workload above isolates the engine. *)
let fleet_machines = 250
let fleet_replicas = 16

(* Aggregate minor words per call across the profile categories matching
   [pred] (e.g. every "mmio."-prefixed category). -1 when no call was
   scoped — distinct from a genuine 0, and never gated. *)
let profile_words_per_call prof pred =
  let calls, words =
    List.fold_left
      (fun (c, w) r ->
        let open Bmcast_obs.Profile in
        if pred r.row_cat then (c + r.calls, w +. r.minor_words) else (c, w))
      (0, 0.0)
      (Bmcast_obs.Profile.rows prof)
  in
  if calls = 0 then -1.0 else words /. float_of_int calls

let fleet_deploy ?profile () =
  Scaleout.deploy_fleet ~seed:42 ~image_mb:8
    ~boot_profile:Bmcast_guest.Os.cloud_minimal ?profile
    ~machines:fleet_machines ~replicas:fleet_replicas ()

let fleet_workload () =
  (* Headline rate from an unprofiled run — the profiler's own scope
     bookkeeping (GC counter snapshots per enter/exit) would inflate
     the per-event figure it is supposed to attribute. A second,
     profiled run supplies the per-category breakdown. *)
  let events = ref 0 in
  let rate =
    measure ~ops:1 (fun () ->
        events := (fleet_deploy ()).Scaleout.sim_events)
  in
  let scale = 1.0 /. float_of_int !events in
  let prof = Bmcast_obs.Profile.create () in
  ignore (fleet_deploy ~profile:prof () : Scaleout.result);
  ( !events,
    { events_per_sec = rate.events_per_sec /. scale;
      minor_words_per_event = rate.minor_words_per_event *. scale },
    profile_words_per_call prof (String.equal "net.send"),
    profile_words_per_call prof (fun cat ->
        String.length cat >= 5 && String.sub cat 0 5 = "mmio.") )

(* --- report + JSON --- *)

let report label r =
  Report.row
    ~label:(Printf.sprintf "%s events/sec" label)
    ~units:"M/s" (r.events_per_sec /. 1e6);
  Report.row
    ~label:(Printf.sprintf "%s minor words/event" label)
    ~units:"w" r.minor_words_per_event

let rate_json r =
  Printf.sprintf {|{"events_per_sec":%.0f,"minor_words_per_event":%.2f}|}
    r.events_per_sec r.minor_words_per_event

let write_json path ~heap ~wheel ~sim_events ~sim ~fleet_events ~fleet
    ~net_send_wpc ~mmio_wpc =
  let oc = open_out path in
  Printf.fprintf oc
    {|{"experiment":"engine",
  "churn":{"pending":%d,"ops":%d,
    "heap":%s,
    "wheel":%s,
    "wheel_speedup":%.2f},
  "sim":{"procs":%d,"sleeps_per_proc":%d,"events":%d,
    "full":%s},
  "fleet":{"machines":%d,"replicas":%d,"events":%d,
    "full":%s,
    "net_send_words_per_call":%.2f,
    "mmio_words_per_call":%.2f}}
|}
    churn_pending churn_ops (rate_json heap) (rate_json wheel)
    (wheel.events_per_sec /. heap.events_per_sec)
    sim_procs sim_sleeps_per_proc sim_events (rate_json sim)
    fleet_machines fleet_replicas fleet_events (rate_json fleet)
    net_send_wpc mmio_wpc;
  close_out oc

let run_all () =
  Report.section
    (Printf.sprintf
       "Engine hot path: scheduler churn (%d pending), full-sim and \
        fleet throughput"
       churn_pending);
  let heap = heap_churn () in
  let wheel = wheel_churn () in
  let sim_events, sim = sim_workload () in
  let fleet_events, fleet, net_send_wpc, mmio_wpc = fleet_workload () in
  report "heap churn" heap;
  report "wheel churn" wheel;
  Report.row ~label:"wheel vs heap churn" ~units:"x speedup"
    (wheel.events_per_sec /. heap.events_per_sec);
  report "full sim" sim;
  report
    (Printf.sprintf "fleet (%d machines)" fleet_machines)
    fleet;
  Report.row ~label:"fleet net.send" ~units:"w/call" net_send_wpc;
  Report.row ~label:"fleet mmio.*" ~units:"w/call" mmio_wpc;
  (heap, wheel, sim_events, sim, fleet_events, fleet, net_send_wpc, mmio_wpc)

let run ~out () =
  let heap, wheel, sim_events, sim, fleet_events, fleet, net_send_wpc, mmio_wpc
      =
    run_all ()
  in
  write_json out ~heap ~wheel ~sim_events ~sim ~fleet_events ~fleet
    ~net_send_wpc ~mmio_wpc;
  Report.note "wrote %s" out

(* --- regression check against the committed snapshot --- *)

(* Every float that follows an occurrence of ["key":] in [s], in
   order. BENCH_engine.json is machine-written by [write_json] above,
   so positional extraction (heap, wheel, sim) is reliable and spares a
   JSON-parser dependency. *)
let numbers_after key s =
  let key = Printf.sprintf "%S:" key in
  let klen = String.length key and n = String.length s in
  let is_num = function
    | '0' .. '9' | '.' | '-' | '+' | 'e' | 'E' -> true
    | _ -> false
  in
  let rec go i acc =
    if i + klen > n then List.rev acc
    else if String.sub s i klen = key then begin
      let stop = ref (i + klen) in
      while !stop < n && is_num s.[!stop] do incr stop done;
      match float_of_string_opt (String.sub s (i + klen) (!stop - i - klen)) with
      | Some v -> go !stop (v :: acc)
      | None -> go !stop acc
    end
    else go (i + 1) acc
  in
  go 0 []

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let regression_threshold = 0.75

(* Allocation gate: >25% growth in minor words per event fails. The
   comparison gets one word of absolute slack because the wheel-churn
   baseline is ~0 words/event, where a pure ratio test would trip on
   measurement noise (or divide by zero). *)
let alloc_threshold = 1.25
let alloc_slack_words = 1.0

let check ~committed () =
  let baseline = read_file committed in
  let heap, wheel, sim_events, sim, fleet_events, fleet, net_send_wpc, mmio_wpc
      =
    run_all ()
  in
  let fresh = "BENCH_engine.fresh.json" in
  write_json fresh ~heap ~wheel ~sim_events ~sim ~fleet_events ~fleet
    ~net_send_wpc ~mmio_wpc;
  Report.note "wrote %s" fresh;
  (* [write_json] emits events_per_sec / minor_words_per_event in the
     fixed order heap, wheel, sim, fleet. The heap row is informational
     (churn at a depth the simulator never reaches), so it is never
     gated. *)
  let throughput_ok =
    match numbers_after "events_per_sec" baseline with
    | [ _heap_base; wheel_base; sim_base; fleet_base ] ->
      let gate label base now =
        let ratio = now /. base in
        Report.row ~label:(Printf.sprintf "%s vs %s" label committed)
          ~units:"x baseline" ratio;
        if ratio < regression_threshold then begin
          Printf.eprintf
            "engine regression: %s %.0f events/sec < %.0f%% of committed \
             %.0f\n"
            label now (100.0 *. regression_threshold) base;
          false
        end
        else true
      in
      let ok_wheel = gate "wheel churn" wheel_base wheel.events_per_sec in
      let ok_sim = gate "full sim" sim_base sim.events_per_sec in
      let ok_fleet = gate "fleet" fleet_base fleet.events_per_sec in
      ok_wheel && ok_sim && ok_fleet
    | nums ->
      Printf.eprintf
        "engine check: expected 4 events_per_sec entries in %s, found %d\n"
        committed (List.length nums);
      false
  in
  (* Allocation gate, shared by the per-event and per-call (profile
     category) comparisons: >25% growth plus one word of absolute slack
     fails. A negative baseline means the category was never scoped in
     the committed run — nothing to gate against. *)
  let alloc_gate ~units label base now =
    Report.row
      ~label:(Printf.sprintf "%s alloc vs %s" label committed)
      ~units:(units ^ " vs baseline")
      (now -. base);
    if base >= 0.0 && now > (base *. alloc_threshold) +. alloc_slack_words
    then begin
      Printf.eprintf
        "engine allocation regression: %s %.2f minor %s > %.0f%% of \
         committed %.2f (+%.1fw slack)\n"
        label now units (100.0 *. alloc_threshold) base alloc_slack_words;
      false
    end
    else true
  in
  let alloc_ok =
    match numbers_after "minor_words_per_event" baseline with
    | [ _heap_base; wheel_base; sim_base; fleet_base ] ->
      let gate = alloc_gate ~units:"words/event" in
      let ok_wheel = gate "wheel churn" wheel_base wheel.minor_words_per_event in
      let ok_sim = gate "full sim" sim_base sim.minor_words_per_event in
      let ok_fleet = gate "fleet" fleet_base fleet.minor_words_per_event in
      ok_wheel && ok_sim && ok_fleet
    | nums ->
      Printf.eprintf
        "engine check: expected 4 minor_words_per_event entries in %s, \
         found %d\n"
        committed (List.length nums);
      false
  in
  (* Per-category diet gates: the pooled fabric send path and the
     untagged-int MMIO path must stay lean, not just the aggregate. *)
  let category_ok key now =
    match numbers_after key baseline with
    | [ base ] -> alloc_gate ~units:"words/call" key base now
    | nums ->
      Printf.eprintf "engine check: expected 1 %s entry in %s, found %d\n"
        key committed (List.length nums);
      false
  in
  let net_send_ok = category_ok "net_send_words_per_call" net_send_wpc in
  let mmio_ok = category_ok "mmio_words_per_call" mmio_wpc in
  throughput_ok && alloc_ok && net_send_ok && mmio_ok
