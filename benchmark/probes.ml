(* Isolated layer probes: host nanoseconds per call into one layer's
   public functions, timed with Bechamel's monotonic clock. Each probe
   takes its shape from the workload it accompanies (pending events,
   frame size, fan-out, image sectors), so a probe answers "what does
   this layer's hot call cost at this workload's size".

   They cover the figure harness's Bechamel micro-benchmarks
   ([bench/main.exe micro]) under per-layer names, except its heap
   push+pop, which the timer wheel's churn row supersedes. *)

module Sim = Bmcast_engine.Sim
module Time = Bmcast_engine.Time
module Prng = Bmcast_engine.Prng
module Wheel = Bmcast_engine.Timer_wheel
module Fabric = Bmcast_net.Fabric
module Packet = Bmcast_net.Packet
module Aoe = Bmcast_proto.Aoe
module Gossip = Bmcast_proto.Gossip
module Bitmap = Bmcast_core.Bitmap
module Extent_map = Bmcast_storage.Extent_map

type shape = {
  pending : int;  (** scheduler queue depth (the traced run's maximum) *)
  fanout : int;  (** multicast group size: the fleet's client count *)
  image_sectors : int;
}

let now_ns () = Monotonic_clock.now ()

(* [op n] performs about [n] calls and returns how many it made. Grow
   [n] until one batch takes about [batch_s], then report the median ns
   per call over [batches] batches. *)
let ns_per_call ?(batch_s = 0.02) ?(batches = 5) op =
  let time n =
    let t0 = now_ns () in
    let calls = op n in
    (Int64.to_float (Int64.sub (now_ns ()) t0), calls)
  in
  let rec calibrate n =
    let dt, _ = time n in
    if dt >= batch_s *. 1e9 || n >= 1 lsl 26 then n
    else
      let scale = if dt <= 0.0 then 16.0 else batch_s *. 1e9 /. dt in
      calibrate (max (n + 1) (int_of_float (float_of_int n *. Float.min 16.0 scale)))
  in
  let n = calibrate 1 in
  Summary.median
    (List.init batches (fun _ ->
         let dt, calls = time n in
         dt /. float_of_int (max 1 calls)))

(* Most probes make exactly the calls they are asked for. *)
let repeat f n =
  for _ = 1 to n do
    f ()
  done;
  n

let wheel_churn shape =
  let w = Wheel.create ~dummy:() () in
  let prng = Prng.create 11 in
  for _ = 1 to max 1 shape.pending do
    ignore (Wheel.push w (Prng.int prng 1_000_000) () : Wheel.token)
  done;
  ns_per_call
    (repeat (fun () ->
         let t = Wheel.next_time w in
         Wheel.pop_exn w;
         ignore (Wheel.push w (t + 1 + Prng.int prng 1_000_000) () : Wheel.token)))

(* One event through the whole engine: perform, park, wheel, resume,
   with [pending] sleepers keeping the queue at the workload's depth. *)
let sleep_chain shape =
  let procs = max 1 shape.pending in
  ns_per_call ~batches:3 (fun n ->
      let sim = Sim.create ~seed:5 () in
      let prng = Prng.create 17 in
      let sleeps = max 1 (n / procs) in
      for _ = 1 to procs do
        Sim.spawn_at sim Time.zero (fun () ->
            for _ = 1 to sleeps do
              Sim.sleep (Time.us (1 + Prng.int prng 5_000))
            done)
      done;
      Sim.run sim;
      Sim.events_executed sim)

let prng_zipf _shape =
  let prng = Prng.create 3 in
  ns_per_call
    (repeat (fun () -> ignore (Prng.zipf prng ~n:10_000 ~theta:0.99 : int)))

(* A jumbo AoE data frame, the fabric's dominant frame size. *)
let frame_bytes =
  Aoe.wire_size ~sectors:(Aoe.max_sectors ~mtu:9000) + Packet.header_bytes

(* Send [n] frames, then run the fabric until every one is delivered:
   enqueue, uplink serialization, switching and egress per frame. *)
let fabric_probe ~members =
  let sim = Sim.create ~seed:1 () in
  let fabric = Fabric.create sim () in
  let src = Fabric.attach fabric ~name:"src" (fun _ -> ()) in
  let dst =
    if members = 0 then Fabric.port_id (Fabric.attach fabric ~name:"dst" ignore)
    else begin
      let group = Fabric.mcast_group fabric in
      for i = 1 to members do
        Fabric.mcast_join
          (Fabric.attach fabric ~name:(Printf.sprintf "m%d" i) ignore)
          ~group
      done;
      group
    end
  in
  let payload = Packet.Raw "" in
  ns_per_call (fun n ->
      let sent =
        repeat (fun () -> Fabric.send src ~dst ~size_bytes:frame_bytes payload) n
      in
      Sim.run sim;
      sent)

let net_send _shape = fabric_probe ~members:0
let mcast_fanout shape = fabric_probe ~members:(max 1 shape.fanout)

let aoe_codec _shape =
  let hdr =
    { Aoe.major = 1;
      minor = 2;
      command = Aoe.Ata_read;
      tag = 12345;
      frag = 3;
      is_response = true;
      error = false;
      lba = 987654321;
      count = 17 }
  in
  ns_per_call
    (repeat (fun () ->
         ignore (Aoe.decode_header (Aoe.encode_header hdr) : Aoe.header)))

(* A half-deployed peer's summary over the image's 1 MB chunks: every
   other chunk held, the worst case for the run-length encoding. *)
let gossip_codec shape =
  let chunks = max 1 (shape.image_sectors / 2048) in
  let summary = Gossip.create ~chunks in
  for c = 0 to chunks - 1 do
    if c mod 2 = 0 then Gossip.set summary c
  done;
  let msg = { Gossip.origin = 7; epoch = 1; summary } in
  ns_per_call
    (repeat (fun () -> ignore (Gossip.decode (Gossip.encode msg) : Gossip.msg)))

let bitmap_fill shape =
  let sectors = max 4096 shape.image_sectors in
  let bm = Bitmap.create ~sectors in
  let pos = ref 0 in
  ns_per_call
    (repeat (fun () ->
         ignore (Bitmap.fill_range bm ~lba:!pos ~count:64 : int);
         pos := (!pos + 64) mod (sectors - 64)))

(* The background copy's worst case: one empty sector left, at the end. *)
let bitmap_scan shape =
  let sectors = max 4096 shape.image_sectors in
  let bm = Bitmap.create ~sectors in
  ignore (Bitmap.fill_range bm ~lba:0 ~count:(sectors - 1) : int);
  ns_per_call
    (repeat (fun () ->
         ignore
           (Bitmap.find_empty_run bm ~from:0 ~max:2048 : (int * int) option)))

let extent_set shape =
  let m = Extent_map.create () in
  let prng = Prng.create 9 in
  let span = max 128 (shape.image_sectors - 64) in
  ns_per_call
    (repeat (fun () ->
         Extent_map.set m ~lba:(Prng.int prng span) ~count:64 (Prng.int prng 4)))

let all =
  [ ("engine.wheel_churn_ns", wheel_churn);
    ("engine.sleep_ns", sleep_chain);
    ("engine.prng_zipf_ns", prng_zipf);
    ("net.send_ns", net_send);
    ("net.mcast_fanout_ns", mcast_fanout);
    ("proto.aoe_codec_ns", aoe_codec);
    ("proto.gossip_codec_ns", gossip_codec);
    ("core.bitmap_fill_ns", bitmap_fill);
    ("core.bitmap_scan_ns", bitmap_scan);
    ("storage.extent_set_ns", extent_set) ]

let run shape = List.map (fun (name, probe) -> (name, probe shape)) all
