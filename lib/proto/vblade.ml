module Sim = Bmcast_engine.Sim
module Time = Bmcast_engine.Time
module Mailbox = Bmcast_engine.Mailbox
module Semaphore = Bmcast_engine.Semaphore
module Content = Bmcast_storage.Content
module Disk = Bmcast_storage.Disk
module Fabric = Bmcast_net.Fabric
module Packet = Bmcast_net.Packet
module Trace = Bmcast_obs.Trace
module Metrics = Bmcast_obs.Metrics

type job = { src : int; frame : Aoe.frame }

(* A userspace daemon doing filesystem I/O per command. *)
let per_request_cpu = Time.us 1500
let per_sector_cpu = 400

type t = {
  sim : Sim.t;
  disk : Disk.t;
  mutable fabric_port : Fabric.port option;
  mtu : int;
  ram_cache : bool;
  work : job Mailbox.t;
  disk_lock : Semaphore.t;
  mutable in_service : int;  (* jobs currently held by workers *)
  mutable requests_served : int;
  mutable bytes_served : int;
  mutable up : bool;
  mutable epoch : int;  (* bumped on crash; orphans in-flight work *)
  mutable crashes : int;
  mutable disk_error_retries : int;
  mutable mcast_frames : int;
  mutable mcast_bytes : int;
}

let port t = Option.get t.fabric_port
let port_id t = Fabric.port_id (port t)
let bytes_served t = t.bytes_served
let is_up t = t.up
let crashes t = t.crashes
let disk_error_retries t = t.disk_error_retries

(* Power loss: the daemon dies mid-flight. Queued requests vanish and
   any response a worker was about to send is suppressed (its epoch no
   longer matches); clients recover by retransmitting. The disk itself
   is non-volatile, so [restart] needs no state beyond flipping the
   server back up. *)
let crash t =
  if t.up then begin
    t.up <- false;
    t.epoch <- t.epoch + 1;
    t.crashes <- t.crashes + 1;
    let dropped = ref 0 in
    while Mailbox.try_recv t.work <> None do
      incr dropped
    done;
    if Trace.on (Sim.trace t.sim) ~cat:"server" then
      Trace.instant (Sim.trace t.sim) ~cat:"server"
        ~args:[ ("queued-lost", Trace.Int !dropped) ]
        "crash"
  end

let restart t =
  t.up <- true;
  if Trace.on (Sim.trace t.sim) ~cat:"server" then
    Trace.instant (Sim.trace t.sim) ~cat:"server" "restart"

(* Whether the daemon that took a request in [epoch] is still the one
   running: a crash since then orphans the request. *)
let live t ~epoch = t.up && t.epoch = epoch

(* vblade's sendto blocks when the socket buffer fills — the root of the
   single-thread bottleneck the paper fixed with a worker pool. A
   response conceived before a crash (stale epoch) is lost with the
   process that was sending it. *)
let respond t ~epoch ~dst hdr data =
  if live t ~epoch then Aoe.send_wait (port t) ~dst hdr data

(* A request counts as served only when its whole answer went out in
   the epoch that took it. *)
let count_served t ~epoch ~sectors =
  if live t ~epoch then begin
    t.requests_served <- t.requests_served + 1;
    t.bytes_served <- t.bytes_served + (sectors * 512)
  end

let bad_range t hdr =
  (hdr.Aoe.command = Aoe.Ata_read || hdr.Aoe.command = Aoe.Ata_write)
  && (hdr.Aoe.lba < 0 || hdr.Aoe.count <= 0
     || hdr.Aoe.lba + hdr.Aoe.count > Disk.capacity_sectors t.disk)

(* Transient media errors (injected by the fault subsystem) are the
   server's problem, not the client's: retry with a short settle delay,
   like a real target re-reading a recoverable sector. Only a fault that
   outlives every retry escalates to an AoE error response. *)
let disk_retry_limit = 8

let rec read_with_retry t ~lba ~count buf attempts =
  match
    Semaphore.with_permit t.disk_lock (fun () ->
        Disk.read_into t.disk ~lba ~count buf)
  with
  | () -> ()
  | exception Disk.Read_error _ when attempts < disk_retry_limit ->
    t.disk_error_retries <- t.disk_error_retries + 1;
    Sim.sleep (Time.ms 2);
    read_with_retry t ~lba ~count buf (attempts + 1)

let serve t job =
  let epoch = t.epoch in
  let hdr = job.frame.Aoe.hdr in
  Sim.sleep (per_request_cpu + Time.mul per_sector_cpu hdr.Aoe.count);
  if bad_range t hdr then
    (* A malformed request gets an error response, not a dead target. *)
    respond t ~epoch ~dst:job.src
      { hdr with Aoe.is_response = true; error = true; count = 0 }
      [||]
  else
  match hdr.Aoe.command with
  | Aoe.Ata_read ->
    (* Read the whole command off the disk (keeping the lock so chunks
       stay sequential), then stream fragments with socket
       backpressure. With one worker the next command's disk read waits
       for this command's wire time; a pool overlaps them. *)
    (* The whole-command staging buffer and each fragment's data array
       come from the [Content.Scratch] pool: the staging buffer returns
       here once streamed; a fragment array is owned by the wire and
       released by its final consumer (the client's reassembly path). *)
    let data = Content.Scratch.alloc hdr.Aoe.count in
    (match
       if t.ram_cache then
         Disk.peek_into t.disk ~lba:hdr.Aoe.lba ~count:hdr.Aoe.count data
       else read_with_retry t ~lba:hdr.Aoe.lba ~count:hdr.Aoe.count data 0
     with
    | exception Disk.Read_error _ ->
      Content.Scratch.release data;
      respond t ~epoch ~dst:job.src
        { hdr with Aoe.is_response = true; error = true; count = 0 }
        [||]
    | () ->
      let per_frame = Aoe.max_sectors ~mtu:t.mtu in
      (* A crash ends the stream: the rest of the answer died with the
         daemon. *)
      let rec stream off frag =
        if off < hdr.Aoe.count && live t ~epoch then begin
          let n = min per_frame (hdr.Aoe.count - off) in
          let d = Content.Scratch.alloc n in
          Content.blit data off d 0 n;
          respond t ~epoch ~dst:job.src
            { hdr with
              Aoe.is_response = true;
              frag = frag land 0xFF;
              lba = hdr.Aoe.lba + off;
              count = n }
            d;
          stream (off + n) (frag + 1)
        end
      in
      stream 0 0;
      Content.Scratch.release data;
      count_served t ~epoch ~sectors:hdr.Aoe.count)
  | Aoe.Query_config ->
    (* Target discovery: capacity rides in the LBA field. *)
    count_served t ~epoch ~sectors:0;
    respond t ~epoch ~dst:job.src
      { hdr with
        Aoe.is_response = true;
        lba = Disk.capacity_sectors t.disk;
        count = 0 }
      [||]
  | Aoe.Ata_write ->
    Semaphore.with_permit t.disk_lock (fun () ->
        Disk.write t.disk ~lba:hdr.Aoe.lba ~count:hdr.Aoe.count
          job.frame.Aoe.data);
    count_served t ~epoch ~sectors:hdr.Aoe.count;
    respond t ~epoch ~dst:job.src { hdr with Aoe.is_response = true } [||]

let rec worker_loop t =
  let job = Mailbox.recv t.work in
  t.in_service <- t.in_service + 1;
  let tr = Sim.trace t.sim in
  (if Trace.on tr ~cat:"server" then begin
     let hdr = job.frame.Aoe.hdr in
     let ts = Sim.now t.sim in
     serve t job;
     Trace.complete tr ~cat:"server"
       ~args:
         [ ("tag", Trace.Int hdr.Aoe.tag);
           ("lba", Trace.Int hdr.Aoe.lba);
           ("count", Trace.Int hdr.Aoe.count) ]
       "serve" ~ts
   end
   else serve t job);
  t.in_service <- t.in_service - 1;
  worker_loop t

(* Non-blocking dispatch (try_send never suspends), so the work-item
   allocation is safe to scope for the allocation profiler. *)
let on_rx t (pkt : Packet.t) =
  let prof = Sim.profile t.sim in
  let profiled = Bmcast_obs.Profile.enabled prof in
  if profiled then Bmcast_obs.Profile.enter prof "proto.vblade_rx";
  (match pkt.Packet.payload with
  | Aoe.Frame frame when not frame.Aoe.hdr.Aoe.is_response && t.up ->
    ignore (Mailbox.try_send t.work { src = pkt.Packet.src; frame } : bool)
  | Aoe.Frame _ | _ -> ());
  if profiled then Bmcast_obs.Profile.exit prof "proto.vblade_rx"

(* Multicast carousel: stream a hot sector range (the blocks every guest
   reads first during boot) to a fabric multicast group as unsolicited
   read responses tagged [Aoe.mcast_tag], repeating for a bounded number
   of passes so late joiners catch blocks they missed. Fragment data
   arrays are plain GC-owned allocations — NEVER scratch-pooled — because
   the fabric's fan-out shares one payload across every member's frame
   copy; no receiver may release it (see Fabric's multicast ownership
   note). Reads go through [Disk.peek_into] (page-cache semantics): the
   carousel serves from memory and never contends for the disk lock. *)
let multicast t ~group ~lba ~count ?(passes = 4) ?(gap = Time.ms 50) () =
  if lba < 0 || count <= 0 || lba + count > Disk.capacity_sectors t.disk then
    invalid_arg "Vblade.multicast: range out of bounds";
  if passes <= 0 then invalid_arg "Vblade.multicast: passes must be positive";
  let per_frame = Aoe.max_sectors ~mtu:t.mtu in
  let tr = Sim.trace t.sim in
  Sim.spawn_at t.sim ~name:"vblade-mcast" (Sim.now t.sim) (fun () ->
      for pass = 1 to passes do
        (* A crashed server's carousel stays silent until restart. *)
        while not t.up do
          Sim.sleep gap
        done;
        let epoch = t.epoch in
        let traced = Trace.on tr ~cat:"server" in
        let ts = Sim.now t.sim in
        let frames = ref 0 in
        let rec stream off frag =
          if off < count && live t ~epoch then begin
            let n = min per_frame (count - off) in
            let d = Content.zeroes ~count:n in
            (match Disk.peek_into t.disk ~lba:(lba + off) ~count:n d with
            | exception Disk.Read_error _ -> ()
            | () ->
              Sim.sleep (Time.mul per_sector_cpu n);
              if live t ~epoch then begin
                Aoe.send_wait (port t) ~dst:group
                  { Aoe.major = 0;
                    minor = 0;
                    command = Aoe.Ata_read;
                    tag = Aoe.mcast_tag;
                    frag = frag land 0xFF;
                    is_response = true;
                    error = false;
                    lba = lba + off;
                    count = n }
                  d;
                incr frames;
                t.mcast_frames <- t.mcast_frames + 1;
                t.mcast_bytes <- t.mcast_bytes + (n * 512)
              end);
            stream (off + n) (frag + 1)
          end
        in
        stream 0 0;
        if traced then
          Trace.complete tr ~cat:"server"
            ~args:
              [ ("pass", Trace.Int pass);
                ("frames", Trace.Int !frames);
                ("lba", Trace.Int lba);
                ("count", Trace.Int count) ]
            "mcast.tx" ~ts;
        Sim.sleep gap
      done)

let mcast_frames_sent t = t.mcast_frames
let mcast_bytes_sent t = t.mcast_bytes

let create sim ~fabric ~name ~disk ?(workers = 8) ?(ram_cache = false) () =
  if workers <= 0 then invalid_arg "Vblade: workers must be positive";
  let t =
    { sim;
      disk;
      fabric_port = None;
      mtu = Fabric.mtu fabric;
      ram_cache;
      work = Mailbox.create ();
      disk_lock = Semaphore.create 1;
      in_service = 0;
      requests_served = 0;
      bytes_served = 0;
      up = true;
      epoch = 0;
      crashes = 0;
      disk_error_retries = 0;
      mcast_frames = 0;
      mcast_bytes = 0 }
  in
  let fabric_port = Fabric.attach fabric ~name (on_rx t) in
  t.fabric_port <- Some fabric_port;
  (* Per-server health, pull-only: evaluated by the timeseries sampler
     (or a JSON snapshot), free on the request path. [vblade.up] is the
     signal the crash watchdog thresholds on; [vblade.uplink_busy_s]'s
     derivative is the uplink utilization fraction. *)
  let m = Sim.metrics sim in
  let labels = [ ("server", name) ] in
  Metrics.derived m ~labels "vblade.up" (fun () -> if t.up then 1.0 else 0.0);
  Metrics.derived m ~labels "vblade.queue" (fun () ->
      float_of_int (Mailbox.length t.work));
  Metrics.derived m ~labels "vblade.inflight" (fun () ->
      float_of_int (Mailbox.length t.work + t.in_service));
  Metrics.derived m ~labels "vblade.requests" (fun () ->
      float_of_int t.requests_served);
  Metrics.derived m ~labels "vblade.bytes" (fun () ->
      float_of_int t.bytes_served);
  Metrics.derived m ~labels "vblade.crashes" (fun () ->
      float_of_int t.crashes);
  Metrics.derived m ~labels "vblade.uplink_bytes" (fun () ->
      float_of_int (Fabric.port_bytes_out fabric_port));
  Metrics.derived m ~labels "vblade.uplink_busy_s" (fun () ->
      float_of_int (Fabric.port_busy_ns fabric_port) /. 1e9);
  Metrics.derived m ~labels "vblade.mcast_frames" (fun () ->
      float_of_int t.mcast_frames);
  Metrics.derived m ~labels "vblade.mcast_bytes" (fun () ->
      float_of_int t.mcast_bytes);
  for i = 1 to workers do
    Sim.spawn_at sim
      ~name:(Printf.sprintf "%s-worker%d" name i)
      (Sim.now sim)
      (fun () -> worker_loop t)
  done;
  t
