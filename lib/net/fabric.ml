module Sim = Bmcast_engine.Sim
module Time = Bmcast_engine.Time
module Prng = Bmcast_engine.Prng
module Mailbox = Bmcast_engine.Mailbox
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

type t = {
  sim : Sim.t;
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
     rx handlers run synchronously in the egress process. *)
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
  uplink : Packet.t Mailbox.t;  (* endpoint -> switch *)
  egress : Packet.t Mailbox.t;  (* switch -> endpoint *)
  tx_drain : Bmcast_engine.Signal.Pulse.t;
  mutable bytes_out : int;
  mutable busy_ns : int;  (* cumulative uplink serialization time *)
  mutable link_up : bool;
  mutable stalled_until : Time.t;  (* NIC fault: DMA engine frozen *)
}

let transmit_span t size = Time.of_float_s (float_of_int size /. t.rate)

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

(* A stalled NIC neither serializes nor accepts frames until the stall
   expires; queued frames survive and drain afterwards. *)
let rec stall_wait port =
  let now = Sim.now port.fab.sim in
  if now < port.stalled_until then begin
    Sim.sleep (Time.diff port.stalled_until now);
    stall_wait port
  end

(* Uplink process: serialize the frame onto the wire, then hand it to the
   switch, which forwards to the destination port's egress queue. *)
let rec uplink_loop t port =
  let frame = Mailbox.recv port.uplink in
  let tr = Sim.trace t.sim in
  let traced = Trace.on tr ~cat:"net" in
  let ts = Sim.now t.sim in
  stall_wait port;
  let span = transmit_span t frame.Packet.size_bytes in
  Sim.sleep span;
  port.bytes_out <- port.bytes_out + frame.Packet.size_bytes;
  port.busy_ns <- port.busy_ns + span;
  Bmcast_engine.Signal.Pulse.pulse port.tx_drain;
  (* Propagation + switch forwarding. *)
  Sim.sleep latency;
  if traced then
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
          if traced then Trace.instant tr ~cat:"net" "link-drop"
        end
        else if loss_roll t then begin
          t.frames_dropped <- t.frames_dropped + 1;
          if traced then Trace.instant tr ~cat:"net" "drop"
        end
        else begin
          t.mcast_deliveries <- t.mcast_deliveries + 1;
          let copy =
            alloc_frame t ~src:frame.Packet.src ~dst:frame.Packet.dst
              ~size_bytes:frame.Packet.size_bytes frame.Packet.payload
          in
          Mailbox.send m.egress copy
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
        if traced then Trace.instant tr ~cat:"net" "link-drop";
        true
      end
      else if loss_roll t then begin
        t.frames_dropped <- t.frames_dropped + 1;
        if traced then Trace.instant tr ~cat:"net" "drop";
        true
      end
      else false
    in
    (* A recycled frame's fields are dead past this point. The payload
       itself is not recycled with the record — its last holder drops it
       to the GC (the pool only manages the frame record). *)
    if dropped then release_frame t frame else Mailbox.send dst.egress frame
  end;
  uplink_loop t port

(* Egress process: serialize on the destination port, then deliver. *)
let rec egress_loop t port =
  let frame = Mailbox.recv port.egress in
  let tr = Sim.trace t.sim in
  let traced = Trace.on tr ~cat:"net" in
  let ts = Sim.now t.sim in
  stall_wait port;
  Sim.sleep (transmit_span t frame.Packet.size_bytes);
  t.bytes_delivered <- t.bytes_delivered + frame.Packet.size_bytes;
  if traced then
    Trace.complete tr ~cat:"net"
      ~args:
        [ ("port", Trace.Str port.name);
          ("bytes", Trace.Int frame.Packet.size_bytes) ]
      "deliver" ~ts;
  (* Deliver by direct call, not [Sim.spawn]: every rx handler in the
     stack is non-blocking by contract (see fabric.mli), and a spawn per
     delivered frame — closure, job record, handler frame, process-name
     concatenation — was a top allocation site at fleet scale. The
     handler runs in the egress process; an exception it raises fails
     that process. *)
  t.rx_keep <- false;
  port.rx frame;
  if not t.rx_keep then release_frame t frame;
  egress_loop t port

let attach t ~name rx =
  let id = t.n_ports in
  let port =
    { id;
      name;
      fab = t;
      rx;
      uplink = Mailbox.create ();
      egress = Mailbox.create ();
      tx_drain = Bmcast_engine.Signal.Pulse.create ();
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
  Sim.spawn_at t.sim ~name:(name ^ "-uplink") (Sim.now t.sim) (fun () ->
      uplink_loop t port);
  Sim.spawn_at t.sim ~name:(name ^ "-egress") (Sim.now t.sim) (fun () ->
      egress_loop t port);
  port

let port_id p = p.id

let send p ~dst ~size_bytes payload =
  let t = p.fab in
  (* Validate before opening the profiler scope: an [invalid_arg] after
     [Profile.enter] would leak the scope (enter without exit) and poison
     every later net.send attribution in the report. *)
  if size_bytes <= 0 then invalid_arg "Fabric.send: size must be positive";
  if size_bytes > Packet.max_frame ~mtu:t.mtu then
    invalid_arg
      (Printf.sprintf "Fabric.send: frame of %d bytes exceeds MTU %d"
         size_bytes t.mtu);
  (* Non-blocking enqueue (try_send never suspends), so the enqueue is
     safe to scope for the allocation profiler. *)
  let prof = Sim.profile t.sim in
  let profiled = Bmcast_obs.Profile.enabled prof in
  if profiled then Bmcast_obs.Profile.enter prof "net.send";
  t.frames_sent <- t.frames_sent + 1;
  let frame = alloc_frame t ~src:p.id ~dst ~size_bytes payload in
  ignore (Mailbox.try_send p.uplink frame : bool);
  if profiled then Bmcast_obs.Profile.exit prof "net.send"

(* Like [send], but models a bounded socket buffer: blocks the calling
   process while more than [socket_frames] are already queued. *)
let socket_frames = 8

let send_wait p ~dst ~size_bytes payload =
  while Mailbox.length p.uplink >= socket_frames do
    Bmcast_engine.Signal.Pulse.wait p.tx_drain
  done;
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
