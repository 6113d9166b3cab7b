module Sim = Bmcast_engine.Sim
module Time = Bmcast_engine.Time
module Prng = Bmcast_engine.Prng
module Ring = Bmcast_engine.Ring
module Trace = Bmcast_obs.Trace
module Metrics = Bmcast_obs.Metrics

(* Frame loss is either memoryless or a two-state Gilbert-Elliott chain
   (good/bad), which produces the bursty losses real switches exhibit
   under congestion or a flaky cable. The chain is stepped once per
   forwarded frame. *)
type loss_model =
  | Uniform of float
  | Gilbert of {
      p_enter_bad : float;  (* per-frame P(good -> bad) *)
      p_exit_bad : float;  (* per-frame P(bad -> good) *)
      loss_good : float;
      loss_bad : float;
    }

(* One-way propagation plus switch forwarding delay. *)
let latency = Time.us 20

(* One direction of a port — its uplink (endpoint -> switch) or its
   egress (switch -> endpoint) — as a run-to-completion job over a frame
   queue; [step] says what the job's next run does. Each run ends by
   re-queueing the job with [Sim.sleep_job], or by parking it on an
   empty queue for [enqueue] to wake with [Sim.wake_job]: one event per
   step, recorded as a process's sleep or wake-up is. *)
type 'step wire = {
  queue : Packet.t Ring.t;
  job : Sim.job;
  mutable step : 'step;
  mutable parked : bool;  (* idle on an empty queue; the next frame wakes it *)
  mutable frame : Packet.t;  (* the frame in flight *)
  mutable since : Time.t;  (* when [frame] was dequeued: its span's start *)
}

type up_step =
  | Up_take  (* dequeue the next frame, or park *)
  | Up_stall  (* a NIC stall was slept out: check again, then serialize *)
  | Up_serialized  (* the frame left the wire: propagate it to the switch *)
  | Up_propagated  (* the frame reached the switch: forward it *)

type eg_step =
  | Eg_take
  | Eg_stall
  | Eg_serialized  (* the frame left the wire: deliver it *)

type t = {
  sim : Sim.t;
  traced : bool;  (* [Trace.on] for "net", resolved once at create *)
  rate : float;
  mtu : int;
  mutable loss : loss_model;
  mutable loss_in_bad : bool;  (* Gilbert-Elliott channel state *)
  prng : Prng.t;
  mutable ports : port array;
  mutable n_ports : int;
  (* Multicast groups: a group id is a negative [dst] (-1, -2, ...);
     index [-dst - 1] into [groups]. Member order is join order, so a
     seeded run's fan-out sequence is deterministic. *)
  mutable groups : group array;
  mutable n_groups : int;
  (* Frame free-list (see the ownership rules in fabric.mli). [rx_keep]
     is a per-delivery flag: an rx handler that retains the frame sets
     it via [keep_frame] before returning. Safe as a single cell because
     rx handlers run synchronously in an egress job. *)
  pooling : bool;
  mutable free_frames : Packet.t array;
  mutable n_free : int;
  mutable rx_keep : bool;
  mutable frames_sent : int;
  mutable frames_dropped : int;
  mutable link_drops : int;
  mutable bytes_delivered : int;
  mutable mcast_sent : int;
  mutable mcast_deliveries : int;
}

and group = {
  mutable members : port array;
  mutable n_members : int;
}

and port = {
  id : int;
  name : string;
  fab : t;
  rx : Packet.t -> unit;
  uplink : up_step wire;  (* endpoint -> switch *)
  egress : eg_step wire;  (* switch -> endpoint *)
  tx_drain : Sim.wait_queue;  (* senders blocked on a full socket buffer *)
  mutable bytes_out : int;
  mutable busy_ns : int;  (* cumulative uplink serialization time *)
  mutable link_up : bool;
  mutable stalled_until : Time.t;  (* NIC fault: DMA engine frozen *)
}

(* [Time.of_float_s (float_of_int size /. t.rate)], written out: under
   dune's [-opaque] dev profile a float passed to another module is
   boxed, and this runs two or three times per frame hop. *)
let transmit_span t size =
  int_of_float (Float.round (float_of_int size /. t.rate *. 1e9))

(* Sentinel payload installed on release: a holder that kept a stale
   reference past recycle sees [Recycled] instead of its old payload,
   turning an aliasing bug into a visible failure. *)
type Packet.payload += Recycled

let dummy_frame =
  { Packet.src = -1; dst = -1; size_bytes = 0; payload = Recycled }

let create sim ?(port_rate_bytes_per_s = 125e6) ?(mtu = 9000)
    ?(loss_rate = 0.0) ?(pool_frames = true) () =
  let t =
    { sim;
      traced = Trace.on (Sim.trace sim) ~cat:"net";
      rate = port_rate_bytes_per_s;
      mtu;
      loss = Uniform loss_rate;
      loss_in_bad = false;
      prng = Prng.split (Sim.rand sim);
      ports = [||];
      n_ports = 0;
      groups = [||];
      n_groups = 0;
      pooling = pool_frames;
      free_frames = [||];
      n_free = 0;
      rx_keep = false;
      frames_sent = 0;
      frames_dropped = 0;
      link_drops = 0;
      bytes_delivered = 0;
      mcast_sent = 0;
      mcast_deliveries = 0 }
  in
  (* Fabric-wide health for the sampler: pull-only derived gauges, so
     the forwarding hot path carries no metrics cost. *)
  let m = Sim.metrics sim in
  Metrics.derived m "net.frames_sent" (fun () -> float_of_int t.frames_sent);
  Metrics.derived m "net.frames_dropped" (fun () ->
      float_of_int t.frames_dropped);
  Metrics.derived m "net.link_drops" (fun () -> float_of_int t.link_drops);
  Metrics.derived m "net.bytes_delivered" (fun () ->
      float_of_int t.bytes_delivered);
  Metrics.derived m "net.port_rate_bytes_per_s" (fun () -> t.rate);
  Metrics.derived m "net.mcast_sent" (fun () -> float_of_int t.mcast_sent);
  Metrics.derived m "net.mcast_deliveries" (fun () ->
      float_of_int t.mcast_deliveries);
  t

let mtu t = t.mtu

let set_loss_model t m =
  t.loss <- m;
  (* A fresh model starts in the good state. *)
  t.loss_in_bad <- false

(* Routing through [set_loss_model] resets the Gilbert-Elliott channel
   state: switching models mid-run must not leave a stale bad-state bit
   that would skew the very next uniform-loss roll after a later switch
   back to a Gilbert chain. *)
let set_loss_rate t r = set_loss_model t (Uniform r)

let loss_model t = t.loss
let loss_in_bad t = t.loss_in_bad

(* One per-frame roll of the active loss model. Draw counts match the
   pre-existing behaviour for [Uniform 0.0] (no draw), keeping seeded
   runs that never touch the loss model bit-identical. *)
let loss_roll t =
  match t.loss with
  | Uniform p -> p > 0.0 && Prng.bernoulli t.prng p
  | Gilbert g ->
    (if t.loss_in_bad then begin
       if Prng.bernoulli t.prng g.p_exit_bad then t.loss_in_bad <- false
     end
     else if Prng.bernoulli t.prng g.p_enter_bad then t.loss_in_bad <- true);
    let p = if t.loss_in_bad then g.loss_bad else g.loss_good in
    p > 0.0 && Prng.bernoulli t.prng p

let find_port t id =
  if id < 0 || id >= t.n_ports then
    invalid_arg (Printf.sprintf "Fabric: unknown port %d" id);
  t.ports.(id)

let port_of_id = find_port

(* --- multicast groups --- *)

let is_mcast dst = dst < 0

let mcast_group t =
  let g = { members = [||]; n_members = 0 } in
  let n = t.n_groups in
  if n = Array.length t.groups then begin
    let grown = Array.make (max 4 (2 * n)) g in
    Array.blit t.groups 0 grown 0 n;
    t.groups <- grown
  end;
  t.groups.(n) <- g;
  t.n_groups <- n + 1;
  -(n + 1)

let group_index t dst =
  let g = -dst - 1 in
  if g < 0 || g >= t.n_groups then
    invalid_arg (Printf.sprintf "Fabric: unknown multicast group %d" dst);
  t.groups.(g)

let mcast_join p ~group =
  let t = p.fab in
  let g = group_index t group in
  let already = ref false in
  for i = 0 to g.n_members - 1 do
    if g.members.(i) == p then already := true
  done;
  if not !already then begin
    let n = g.n_members in
    if n = Array.length g.members then begin
      let grown = Array.make (max 4 (2 * n)) p in
      Array.blit g.members 0 grown 0 n;
      g.members <- grown
    end;
    g.members.(n) <- p;
    g.n_members <- n + 1
  end

let mcast_leave p ~group =
  let t = p.fab in
  let g = group_index t group in
  (* Shift-remove preserves join order, keeping fan-out deterministic. *)
  let j = ref 0 in
  for i = 0 to g.n_members - 1 do
    if g.members.(i) != p then begin
      g.members.(!j) <- g.members.(i);
      incr j
    end
  done;
  g.n_members <- !j

let mcast_members t ~group = (group_index t group).n_members

(* --- frame pool --- *)

let alloc_frame t ~src ~dst ~size_bytes payload =
  if t.n_free > 0 then begin
    let n = t.n_free - 1 in
    t.n_free <- n;
    let f = t.free_frames.(n) in
    t.free_frames.(n) <- dummy_frame;
    f.Packet.src <- src;
    f.Packet.dst <- dst;
    f.Packet.size_bytes <- size_bytes;
    f.Packet.payload <- payload;
    f
  end
  else { Packet.src; dst; size_bytes; payload }

let release_frame t f =
  if t.pooling then begin
    f.Packet.payload <- Recycled;
    let n = t.n_free in
    if n = Array.length t.free_frames then begin
      let grown = Array.make (max 16 (2 * n)) dummy_frame in
      Array.blit t.free_frames 0 grown 0 n;
      t.free_frames <- grown
    end;
    t.free_frames.(n) <- f;
    t.n_free <- n + 1
  end

let keep_frame t = t.rx_keep <- true
let pool_free_count t = t.n_free

(* Queue a frame on a wire, waking its job if it is parked. *)
let enqueue w frame =
  Ring.push w.queue frame;
  if w.parked then begin
    w.parked <- false;
    Sim.wake_job w.job
  end

(* The loop head: dequeue the next frame, or park when there is none. *)
let take t w =
  if Ring.is_empty w.queue then begin
    w.parked <- true;
    false
  end
  else begin
    w.frame <- Ring.pop w.queue;
    w.since <- Sim.now t.sim;
    true
  end

(* Put the dequeued frame on the wire: [serialized] runs once it has
   left. A stalled NIC neither serializes nor accepts frames until the
   stall expires ([stalled] runs then, to check again); queued frames
   survive and drain afterwards. *)
let serialize t port w ~stalled ~serialized =
  let now = Sim.now t.sim in
  if now < port.stalled_until then begin
    w.step <- stalled;
    Sim.sleep_job w.job (Time.diff port.stalled_until now)
  end
  else begin
    w.step <- serialized;
    Sim.sleep_job w.job (transmit_span t w.frame.Packet.size_bytes)
  end

(* Switch forwarding: hand a frame that crossed [port]'s uplink to the
   destination port's egress queue (or to every member of a multicast
   group). *)
let forward t port frame ~ts =
  let tr = Sim.trace t.sim in
  if t.traced then
    Trace.complete tr ~cat:"net"
      ~args:
        [ ("port", Trace.Str port.name);
          ("dst", Trace.Int frame.Packet.dst);
          ("bytes", Trace.Int frame.Packet.size_bytes) ]
      "xmit" ~ts;
  if is_mcast frame.Packet.dst then begin
    (* Multicast fan-out: the switch replicates the frame to every group
       member on a live link, rolling link state and the loss model per
       member — each receiver sees an independent channel, as with real
       IGMP-snooped replication. The sender never hears its own frame.
       Frame {e records} are per-member pool allocations; the {e payload}
       is shared by every copy, so multicast payloads must be GC-owned
       (never scratch-pooled) and receivers must not release them. *)
    let g = group_index t frame.Packet.dst in
    t.mcast_sent <- t.mcast_sent + 1;
    for i = 0 to g.n_members - 1 do
      let m = g.members.(i) in
      if m != port then
        if not (port.link_up && m.link_up) then begin
          t.frames_dropped <- t.frames_dropped + 1;
          t.link_drops <- t.link_drops + 1;
          if t.traced then Trace.instant tr ~cat:"net" "link-drop"
        end
        else if loss_roll t then begin
          t.frames_dropped <- t.frames_dropped + 1;
          if t.traced then Trace.instant tr ~cat:"net" "drop"
        end
        else begin
          t.mcast_deliveries <- t.mcast_deliveries + 1;
          let copy =
            alloc_frame t ~src:frame.Packet.src ~dst:frame.Packet.dst
              ~size_bytes:frame.Packet.size_bytes frame.Packet.payload
          in
          enqueue m.egress copy
        end
    done;
    release_frame t frame
  end
  else begin
    let dst = find_port t frame.Packet.dst in
    let dropped =
      if not (port.link_up && dst.link_up) then begin
        t.frames_dropped <- t.frames_dropped + 1;
        t.link_drops <- t.link_drops + 1;
        if t.traced then Trace.instant tr ~cat:"net" "link-drop";
        true
      end
      else if loss_roll t then begin
        t.frames_dropped <- t.frames_dropped + 1;
        if t.traced then Trace.instant tr ~cat:"net" "drop";
        true
      end
      else false
    in
    (* A recycled frame's fields are dead past this point. The payload
       itself is not recycled with the record — its last holder drops it
       to the GC (the pool only manages the frame record). *)
    if dropped then release_frame t frame else enqueue dst.egress frame
  end

(* Uplink: wait out a stall, serialize the frame onto the wire, hold the
   wire for the propagation delay, then forward through the switch. *)
let rec uplink_step t port =
  let w = port.uplink in
  match w.step with
  | Up_take ->
    if take t w then
      serialize t port w ~stalled:Up_stall ~serialized:Up_serialized
  | Up_stall -> serialize t port w ~stalled:Up_stall ~serialized:Up_serialized
  | Up_serialized ->
    let span = transmit_span t w.frame.Packet.size_bytes in
    port.bytes_out <- port.bytes_out + w.frame.Packet.size_bytes;
    port.busy_ns <- port.busy_ns + span;
    Sim.wake_all port.tx_drain;
    w.step <- Up_propagated;
    Sim.sleep_job w.job latency
  | Up_propagated ->
    forward t port w.frame ~ts:w.since;
    w.step <- Up_take;
    uplink_step t port

(* Egress: wait out a stall, serialize on the destination port, then
   deliver. The rx handler is called directly, not spawned: every rx
   handler in the stack is non-blocking by contract (see fabric.mli),
   and a spawn per delivered frame was a top allocation site at fleet
   scale. An exception it raises fails the egress job. *)
let rec egress_step t port =
  let w = port.egress in
  match w.step with
  | Eg_take ->
    if take t w then
      serialize t port w ~stalled:Eg_stall ~serialized:Eg_serialized
  | Eg_stall -> serialize t port w ~stalled:Eg_stall ~serialized:Eg_serialized
  | Eg_serialized ->
    let frame = w.frame in
    t.bytes_delivered <- t.bytes_delivered + frame.Packet.size_bytes;
    if t.traced then
      Trace.complete (Sim.trace t.sim) ~cat:"net"
        ~args:
          [ ("port", Trace.Str port.name);
            ("bytes", Trace.Int frame.Packet.size_bytes) ]
        "deliver" ~ts:w.since;
    w.step <- Eg_take;
    t.rx_keep <- false;
    port.rx frame;
    if not t.rx_keep then release_frame t frame;
    egress_step t port

(* A wire whose job runs [step t port] on the port attached as [id]. *)
let wire t ~id ~name step first =
  { queue = Ring.create ();
    job = Sim.job t.sim ~name (fun () -> step t t.ports.(id));
    step = first;
    parked = false;
    frame = dummy_frame;
    since = Time.zero }

(* A bounded socket buffer: [send_wait] blocks the calling process while
   [socket_frames] or more frames are already queued on the uplink. *)
let socket_frames = 8

let attach t ~name rx =
  let id = t.n_ports in
  let uplink = wire t ~id ~name:(name ^ "-uplink") uplink_step Up_take in
  let port =
    { id;
      name;
      fab = t;
      rx;
      uplink;
      egress = wire t ~id ~name:(name ^ "-egress") egress_step Eg_take;
      tx_drain =
        Sim.wait_queue t.sim (fun () -> Ring.length uplink.queue < socket_frames);
      bytes_out = 0;
      busy_ns = 0;
      link_up = true;
      stalled_until = Time.zero }
  in
  (* Geometric growth: [Array.append] per attach re-copies the whole
     table, which is O(n^2) across a 10k-client fleet bring-up. *)
  if id = Array.length t.ports then begin
    let grown = Array.make (max 16 (2 * id)) port in
    Array.blit t.ports 0 grown 0 id;
    t.ports <- grown
  end;
  t.ports.(id) <- port;
  t.n_ports <- id + 1;
  Sim.start_job port.uplink.job;
  Sim.start_job port.egress.job;
  port

let port_id p = p.id

(* Validate before opening the profiler scope: an [invalid_arg] after
   [Profile.enter] would leak the scope (enter without exit) and poison
   every later net.send attribution in the report. *)
let check_size t size_bytes =
  if size_bytes <= 0 then invalid_arg "Fabric.send: size must be positive";
  if size_bytes > Packet.max_frame ~mtu:t.mtu then
    invalid_arg
      (Printf.sprintf "Fabric.send: frame of %d bytes exceeds MTU %d"
         size_bytes t.mtu)

let frame p ~dst ~size_bytes payload =
  alloc_frame p.fab ~src:p.id ~dst ~size_bytes payload

(* Non-blocking enqueue (a wake-up only queues the uplink job), so the
   enqueue is safe to scope for the allocation profiler. *)
let send_frame p frame =
  let t = p.fab in
  check_size t frame.Packet.size_bytes;
  let prof = Sim.profile t.sim in
  let profiled = Bmcast_obs.Profile.enabled prof in
  if profiled then Bmcast_obs.Profile.enter prof "net.send";
  t.frames_sent <- t.frames_sent + 1;
  enqueue p.uplink frame;
  if profiled then Bmcast_obs.Profile.exit prof "net.send"

(* An invalid size raises after the record left the pool; it goes to the
   GC. *)
let send p ~dst ~size_bytes payload =
  send_frame p (frame p ~dst ~size_bytes payload)

(* Each frame that leaves the uplink wakes [tx_drain]'s senders; one
   admitted sender refills the buffer, so the rest are re-checked and
   parked again without being resumed. *)
let send_wait p ~dst ~size_bytes payload =
  Sim.wait p.tx_drain;
  send p ~dst ~size_bytes payload

let set_link_up p up = p.link_up <- up
let link_up p = p.link_up

let stall p span =
  let until = Time.add (Sim.now p.fab.sim) span in
  if until > p.stalled_until then p.stalled_until <- until

let frames_sent t = t.frames_sent
let frames_dropped t = t.frames_dropped
let mcast_sent t = t.mcast_sent
let mcast_deliveries t = t.mcast_deliveries
let link_drops t = t.link_drops
let port_bytes_out p = p.bytes_out
let port_busy_ns p = p.busy_ns
