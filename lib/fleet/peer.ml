module Sim = Bmcast_engine.Sim
module Time = Bmcast_engine.Time
module Mailbox = Bmcast_engine.Mailbox
module Int_table = Bmcast_engine.Int_table
module Content = Bmcast_storage.Content
module Fabric = Bmcast_net.Fabric
module Packet = Bmcast_net.Packet
module Aoe = Bmcast_proto.Aoe
module Gossip = Bmcast_proto.Gossip
module Trace = Bmcast_obs.Trace
module Metrics = Bmcast_obs.Metrics

type job = { src : int; hdr : Aoe.header }

let announce_interval = Time.ms 250

(* Probation after a failover. *)
let cooldown = Time.ms 500

(* A lean in-kernel responder, but one that is also busy booting a
   guest. *)
let per_request_cpu = Time.us 300
let per_sector_cpu = 400

type agent = {
  swarm : t;
  name : string;
  port : Fabric.port;
  has_chunk : int -> bool;
  peek : lba:int -> count:int -> Content.t array -> unit;
  local : Gossip.summary;  (* chunks known held, as of the last scan *)
  mutable announced : int;  (* cardinality at the last announce *)
  work : job Mailbox.t;
  mutable up : bool;
  mutable epoch : int;
  mutable outstanding : int;  (* commands routed here, fleet-wide *)
  mutable suspect_until : Time.t;
  mutable served_bytes : int;
}

(* What the tracker has heard about one peer. The advertised summary is
   deliberately allowed to go stale (lost announcements, crashed peers):
   routing on stale data costs a timeout + failover, exactly the
   behaviour the convergence tests pin. *)
and entry = { agent : agent; seen : Gossip.summary }

and t = {
  sim : Sim.t;
  fabric : Fabric.t;
  image_sectors : int;
  chunk_sectors : int;
  chunks : int;
  gossip_group : int;
  mutable agents : agent array;
  mutable n_agents : int;
  directory : entry Int_table.t;  (* origin port id -> entry *)
  mutable announces_received : int;
  m_gossip_tx : float ref;
  m_gossip_rx : float ref;
  m_serves : float ref;
  m_serve_bytes : float ref;
  m_routed : float ref;
  m_failovers : float ref;
}

let announces_received t = t.announces_received
let agent_port a = Fabric.port_id a.port
let served_bytes a = a.served_bytes

(* Tracker rx: fold announcements into the directory. The [Announce]
   payload is GC-owned and the frame record is recycled on return — we
   copy nothing and keep nothing but the merged bits. *)
let tracker_rx t (pkt : Packet.t) =
  match pkt.Packet.payload with
  | Gossip.Announce m -> (
    t.announces_received <- t.announces_received + 1;
    Metrics.incr t.m_gossip_rx;
    let tr = Sim.trace t.sim in
    if Trace.on tr ~cat:"fleet" then
      Trace.instant tr ~cat:"fleet"
        ~args:
          [ ("origin", Trace.Int m.Gossip.origin);
            ("held", Trace.Int (Gossip.cardinal m.Gossip.summary)) ]
        "gossip-rx";
    match Int_table.find t.directory m.Gossip.origin with
    | e -> Gossip.merge_into ~into:e.seen m.Gossip.summary
    | exception Not_found ->
      () (* unknown origin: agent not registered (yet) *))
  | _ -> ()

let create sim ~fabric ~image_sectors ~chunk_sectors =
  if image_sectors <= 0 then invalid_arg "Peer.create: empty image";
  if chunk_sectors <= 0 then invalid_arg "Peer.create: bad chunk size";
  let m = Sim.metrics sim in
  let t =
    { sim;
      fabric;
      image_sectors;
      chunk_sectors;
      chunks = (image_sectors + chunk_sectors - 1) / chunk_sectors;
      gossip_group = Fabric.mcast_group fabric;
      agents = [||];
      n_agents = 0;
      directory = Int_table.create 64;
      announces_received = 0;
      m_gossip_tx = Metrics.counter m "gossip.tx";
      m_gossip_rx = Metrics.counter m "gossip.rx";
      m_serves = Metrics.counter m "p2p.serves";
      m_serve_bytes = Metrics.counter m "p2p.served_bytes";
      m_routed = Metrics.counter m "p2p.routed";
      m_failovers = Metrics.counter m "p2p.failovers" }
  in
  let tracker = Fabric.attach fabric ~name:"p2p-tracker" (tracker_rx t) in
  Fabric.mcast_join tracker ~group:t.gossip_group;
  t

(* --- serving --- *)

(* One serve, vblade-style: stage the whole command from page cache,
   then stream scratch-pooled fragments with socket backpressure; the
   requester's reassembly path releases each fragment array. Any guard
   failure — crashed, stale epoch, range not (or no longer) fully held —
   drops the request silently; the requester's timeout recovers. *)
let serve t a job =
  let epoch = a.epoch in
  let hdr = job.hdr in
  Sim.sleep (per_request_cpu + Time.mul per_sector_cpu hdr.Aoe.count);
  let lba = hdr.Aoe.lba and count = hdr.Aoe.count in
  let holds () =
    lba >= 0 && count > 0
    && lba + count <= t.image_sectors
    &&
    let c0 = lba / t.chunk_sectors and c1 = (lba + count - 1) / t.chunk_sectors in
    let ok = ref true in
    for c = c0 to c1 do
      if not (a.has_chunk c) then ok := false
    done;
    !ok
  in
  if a.up && a.epoch = epoch && holds () then begin
    let tr = Sim.trace t.sim in
    let traced = Trace.on tr ~cat:"fleet" in
    let ts = Sim.now t.sim in
    let data = Content.Scratch.alloc count in
    a.peek ~lba ~count data;
    let per_frame = Aoe.max_sectors ~mtu:(Fabric.mtu t.fabric) in
    let rec stream off frag =
      if off < count && a.up && a.epoch = epoch then begin
        let n = min per_frame (count - off) in
        let d = Content.Scratch.alloc n in
        Content.blit data off d 0 n;
        if a.up && a.epoch = epoch then
          Aoe.send_wait a.port ~dst:job.src
            { hdr with
              Aoe.is_response = true;
              frag = frag land 0xFF;
              lba = lba + off;
              count = n }
            d
        else Content.Scratch.release d;
        stream (off + n) (frag + 1)
      end
    in
    stream 0 0;
    Content.Scratch.release data;
    if a.up && a.epoch = epoch then begin
      a.served_bytes <- a.served_bytes + (count * 512);
      Metrics.incr t.m_serves;
      Metrics.incr ~by:(float_of_int (count * 512)) t.m_serve_bytes;
      if traced then
        Trace.complete tr ~cat:"fleet"
          ~args:
            [ ("peer", Trace.Str a.name);
              ("tag", Trace.Int hdr.Aoe.tag);
              ("lba", Trace.Int lba);
              ("count", Trace.Int count) ]
          "p2p.serve" ~ts
    end
  end

let rec worker_loop t a =
  let job = Mailbox.recv a.work in
  serve t a job;
  worker_loop t a

(* Peer rx: only read requests; anything else is not ours to answer. *)
let peer_rx a (pkt : Packet.t) =
  match pkt.Packet.payload with
  | Aoe.Frame frame
    when (not frame.Aoe.hdr.Aoe.is_response)
         && frame.Aoe.hdr.Aoe.command = Aoe.Ata_read
         && a.up ->
    ignore (Mailbox.try_send a.work { src = pkt.Packet.src; hdr = frame.Aoe.hdr } : bool)
  | _ -> ()

(* Announcer tick: rescan unheld chunks against the local guard; if
   coverage grew since the last announcement, multicast a fresh summary
   to the tracker. A complete, fully-announced peer's tick is a cheap
   no-op for the rest of the run. *)
let announce_tick t a () =
  if a.up && a.announced < t.chunks then begin
    for c = 0 to t.chunks - 1 do
      if (not (Gossip.mem a.local c)) && a.has_chunk c then Gossip.set a.local c
    done;
    let held = Gossip.cardinal a.local in
    if held > a.announced then begin
      a.announced <- held;
      Metrics.incr t.m_gossip_tx;
      Gossip.send a.port ~dst:t.gossip_group
        { Gossip.origin = agent_port a;
          epoch = a.epoch;
          summary = Gossip.copy a.local }
    end
  end

let join t ~name ~has_chunk ~peek () =
  let rec a =
    lazy
      { swarm = t;
        name;
        port = Fabric.attach t.fabric ~name:(name ^ "-peer") (fun pkt ->
            peer_rx (Lazy.force a) pkt);
        has_chunk;
        peek;
        local = Gossip.create ~chunks:t.chunks;
        announced = 0;
        work = Mailbox.create ();
        up = true;
        epoch = 0;
        outstanding = 0;
        suspect_until = Time.zero;
        served_bytes = 0 }
  in
  let a = Lazy.force a in
  let n = t.n_agents in
  if n = Array.length t.agents then begin
    let grown = Array.make (max 16 (2 * n)) a in
    Array.blit t.agents 0 grown 0 n;
    t.agents <- grown
  end;
  t.agents.(n) <- a;
  t.n_agents <- n + 1;
  Int_table.replace t.directory (agent_port a)
    { agent = a; seen = Gossip.create ~chunks:t.chunks };
  Sim.spawn_at t.sim ~name:(name ^ "-peer-worker") (Sim.now t.sim) (fun () ->
      worker_loop t a);
  ignore
    (Sim.every t.sim ~daemon:true announce_interval (announce_tick t a)
      : unit -> unit);
  a

let crash a =
  if a.up then begin
    a.up <- false;
    a.epoch <- a.epoch + 1;
    while Mailbox.try_recv a.work <> None do
      ()
    done;
    let tr = Sim.trace a.swarm.sim in
    if Trace.on tr ~cat:"fleet" then
      Trace.instant tr ~cat:"fleet"
        ~args:[ ("peer", Trace.Str a.name) ]
        "peer-crash"
  end

(* --- directory queries --- *)

let covers t (s : Gossip.summary) ~lba ~count =
  lba >= 0 && count > 0
  && lba + count <= t.image_sectors
  &&
  let c0 = lba / t.chunk_sectors and c1 = (lba + count - 1) / t.chunk_sectors in
  let ok = ref true in
  for c = c0 to c1 do
    if not (Gossip.mem s c) then ok := false
  done;
  !ok

(* --- routing --- *)

type flight = { agent : agent; want : int; mutable got : int }

type router = {
  rt : t;
  self : agent option;
  rset : Replica_set.t;
  flights : flight Int_table.t;  (* peer-routed commands only, by tag *)
  mutable routed : int;
  mutable failovers : int;
}

let router t ?self rset =
  { rt = t;
    self;
    rset;
    flights = Int_table.create 16;
    routed = 0;
    failovers = 0 }

let p2p_routed r = r.routed
let p2p_failovers r = r.failovers

(* Least-outstanding live, off-probation peer advertising the range;
   ties break to earliest join, keeping seeded runs deterministic. *)
let select_peer r ~lba ~count =
  let t = r.rt in
  let now = Sim.now t.sim in
  let best = ref None in
  for i = 0 to t.n_agents - 1 do
    let a = t.agents.(i) in
    let is_self = match r.self with Some s -> s == a | None -> false in
    if (not is_self) && a.up && now >= a.suspect_until then begin
      let e = Int_table.find t.directory (agent_port a) in
      if covers t e.seen ~lba ~count then
        match !best with
        | Some b when b.outstanding <= a.outstanding -> ()
        | _ -> best := Some a
    end
  done;
  !best

let route r (hdr : Aoe.header) =
  match Int_table.find r.flights hdr.Aoe.tag with
  | f ->
    (* A peer-routed command timed out: put the peer on probation, hand
       the command to the replica set as a fresh flight, and never try
       peers again for this tag. *)
    let t = r.rt in
    f.agent.suspect_until <- Time.add (Sim.now t.sim) cooldown;
    f.agent.outstanding <- max 0 (f.agent.outstanding - 1);
    Int_table.remove r.flights hdr.Aoe.tag;
    r.failovers <- r.failovers + 1;
    Metrics.incr t.m_failovers;
    let tr = Sim.trace t.sim in
    if Trace.on tr ~cat:"fleet" then
      Trace.instant tr ~cat:"fleet"
        ~args:
          [ ("tag", Trace.Int hdr.Aoe.tag);
            ("peer", Trace.Str f.agent.name) ]
        "p2p-failover";
    Replica_set.route r.rset hdr
  | exception Not_found -> (
    if hdr.Aoe.command <> Aoe.Ata_read then Replica_set.route r.rset hdr
    else
      match select_peer r ~lba:hdr.Aoe.lba ~count:hdr.Aoe.count with
      | None -> Replica_set.route r.rset hdr
      | Some a ->
        a.outstanding <- a.outstanding + 1;
        Int_table.replace r.flights hdr.Aoe.tag
          { agent = a; want = hdr.Aoe.count; got = 0 };
        r.routed <- r.routed + 1;
        Metrics.incr r.rt.m_routed;
        agent_port a)

let observe r (hdr : Aoe.header) =
  if hdr.Aoe.is_response then
    match Int_table.find r.flights hdr.Aoe.tag with
    | exception Not_found -> Replica_set.observe r.rset hdr
    | f ->
      (* Answers lift probation immediately, like replica proof-of-life. *)
      f.agent.suspect_until <- Time.zero;
      if hdr.Aoe.error then begin
        f.agent.outstanding <- max 0 (f.agent.outstanding - 1);
        Int_table.remove r.flights hdr.Aoe.tag
      end
      else begin
        f.got <- f.got + hdr.Aoe.count;
        if f.got >= f.want then begin
          f.agent.outstanding <- max 0 (f.agent.outstanding - 1);
          Int_table.remove r.flights hdr.Aoe.tag
        end
      end
