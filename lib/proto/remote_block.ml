module Sim = Bmcast_engine.Sim
module Time = Bmcast_engine.Time
module Mailbox = Bmcast_engine.Mailbox
module Semaphore = Bmcast_engine.Semaphore
module Signal = Bmcast_engine.Signal
module Content = Bmcast_storage.Content
module Disk = Bmcast_storage.Disk
module Fabric = Bmcast_net.Fabric
module Packet = Bmcast_net.Packet

type protocol = Iscsi | Nfs

type params = {
  label : string;
  client_op_overhead : Time.span;
  server_op_overhead : Time.span;
  max_op_sectors : int;
  readahead_sectors : int;
}

(* Calibration targets (§5.1): a KVM guest booting over NFS starts in
   42 s vs 55 s over iSCSI — NFS's file-level read-ahead absorbs round
   trips for the boot's mostly-sequential reads, despite its higher
   per-op cost. *)
let params_of = function
  | Iscsi ->
    { label = "iscsi";
      client_op_overhead = Time.us 1200;
      server_op_overhead = Time.ms 2;
      max_op_sectors = 8192;
      readahead_sectors = 0 }
  | Nfs ->
    { label = "nfs";
      client_op_overhead = Time.us 600;
      server_op_overhead = Time.us 900;
      max_op_sectors = 2048;
      readahead_sectors = 128
      (* initial read-ahead window (64 KB); ramps up to max_op_sectors
         on detected sequential access, Linux-style *) }

type req = { tag : int; op : [ `Read | `Write ]; lba : int; count : int;
             data : Content.t array }

type resp = { rtag : int; roff : int; rdata : Content.t array; final : bool }

type Packet.payload += Block_req of req | Block_resp of resp

type server = {
  s_sim : Sim.t;
  s_disk : Disk.t;
  s_params : params;
  mutable s_port : Fabric.port option;
  s_work : (int * req) Mailbox.t;
  s_disk_lock : Semaphore.t;
}

type client = {
  c_sim : Sim.t;
  c_params : params;
  mutable c_port : Fabric.port option;
  c_server : int;  (* server port id *)
  mutable c_next_tag : int;
  c_pending : (int, resp -> unit) Hashtbl.t;
  c_lock : Semaphore.t;  (* one op stream at a time, TCP-like *)
  (* read-ahead cache: one window, adaptive size *)
  mutable ra_lba : int;
  mutable ra_data : Content.t array;
  mutable ra_size : int;  (* current window; doubles on sequential *)
  (* asynchronous prefetch of the next window (issued once streaming is
     detected) and bounded write-behind *)
  mutable prefetches : prefetch list;  (* oldest first, up to 2 deep *)
  wb_slots : Semaphore.t;
  mutable ops : int;
}

and prefetch = {
  pf_lba : int;
  pf_count : int;
  mutable pf_data : Content.t array;
  pf_done : Signal.Latch.t;
}

(* Send [total_bytes] as MTU-sized raw frames, the last one carrying the
   marker payload (TCP-stream abstraction: FIFO, no loss). *)
let send_bulk port ~dst ~total_bytes payload =
  let mtu = 8962 in
  let rec go remaining =
    if remaining > mtu then begin
      Fabric.send port ~dst ~size_bytes:(mtu + 76) (Packet.Raw "seg");
      go (remaining - mtu)
    end
    else Fabric.send port ~dst ~size_bytes:(remaining + 76) payload
  in
  go (max 1 total_bytes)

(* --- server --- *)

let server_port s = Option.get s.s_port
let server_port_id s = Fabric.port_id (server_port s)

let serve s (src, r) =
  Sim.sleep s.s_params.server_op_overhead;
  match r.op with
  | `Read ->
    (* Stream the read back in chunks so disk and wire pipeline. *)
    let chunk = 512 in
    let rec go off =
      let n = min chunk (r.count - off) in
      let data =
        Semaphore.with_permit s.s_disk_lock (fun () ->
            Disk.read s.s_disk ~lba:(r.lba + off) ~count:n)
      in
      let final = off + n >= r.count in
      send_bulk (server_port s) ~dst:src ~total_bytes:(n * 512)
        (Block_resp { rtag = r.tag; roff = off; rdata = data; final });
      if not final then go (off + n)
    in
    go 0
  | `Write ->
    Semaphore.with_permit s.s_disk_lock (fun () ->
        Disk.write s.s_disk ~lba:r.lba ~count:r.count r.data);
    send_bulk (server_port s) ~dst:src ~total_bytes:64
      (Block_resp { rtag = r.tag; roff = 0; rdata = [||]; final = true })

let rec server_loop s =
  let job = Mailbox.recv s.s_work in
  serve s job;
  server_loop s

let create_server sim ~fabric ~name ~disk protocol =
  let s =
    { s_sim = sim;
      s_disk = disk;
      s_params = params_of protocol;
      s_port = None;
      s_work = Mailbox.create ();
      s_disk_lock = Semaphore.create 1 }
  in
  let rx (pkt : Packet.t) =
    match pkt.Packet.payload with
    | Block_req r -> ignore (Mailbox.try_send s.s_work (pkt.Packet.src, r) : bool)
    | Block_resp _ | _ -> ()
  in
  s.s_port <- Some (Fabric.attach fabric ~name rx);
  (* A handful of service threads: enough to overlap CPU and disk. *)
  for i = 1 to 4 do
    Sim.spawn_at sim ~name:(Printf.sprintf "%s-srv%d" name i) (Sim.now sim)
      (fun () -> server_loop s)
  done;
  s

(* --- client --- *)

let ops_issued c = c.ops

let connect sim ~fabric ~name server =
  let c =
    { c_sim = sim;
      c_params = (params_of Iscsi) (* replaced below *);
      c_port = None;
      c_server = server_port_id server;
      c_next_tag = 1;
      c_pending = Hashtbl.create 8;
      c_lock = Semaphore.create 1;
      ra_lba = -1;
      ra_data = [||];
      ra_size = (params_of Iscsi).readahead_sectors;
      prefetches = [];
      wb_slots = Semaphore.create 4;
      ops = 0 }
  in
  let c =
    { c with
      c_params = server.s_params;
      ra_size = server.s_params.readahead_sectors }
  in
  let rx (pkt : Packet.t) =
    match pkt.Packet.payload with
    | Block_resp r -> (
      match Hashtbl.find_opt c.c_pending r.rtag with
      | Some k ->
        if r.final then Hashtbl.remove c.c_pending r.rtag;
        k r
      | None -> ())
    | Block_req _ | _ -> ()
  in
  c.c_port <- Some (Fabric.attach fabric ~name rx);
  c

let rpc c op ~lba ~count data =
  Sim.sleep c.c_params.client_op_overhead;
  let tag = c.c_next_tag in
  c.c_next_tag <- tag + 1;
  c.ops <- c.ops + 1;
  let result = Content.zeroes ~count:(match op with `Read -> count | `Write -> 0) in
  let done_ = Signal.Latch.create () in
  Hashtbl.replace c.c_pending tag (fun r ->
      Content.blit r.rdata 0 result r.roff (Array.length r.rdata);
      if r.final then Signal.Latch.set done_);
  let req_bytes =
    match op with `Read -> 128 | `Write -> 128 + (count * 512)
  in
  send_bulk (Option.get c.c_port) ~dst:c.c_server ~total_bytes:req_bytes
    (Block_req { tag; op; lba; count; data });
  Signal.Latch.wait done_;
  result

let in_readahead c ~lba ~count =
  c.ra_lba >= 0 && lba >= c.ra_lba
  && lba + count <= c.ra_lba + Array.length c.ra_data

(* Once streaming is detected (window at maximum), keep up to two
   next-window fetches in flight so wire, disk and consumer overlap. *)
let rec maybe_start_prefetch c =
  if
    c.c_params.readahead_sectors > 0
    && c.ra_size >= c.c_params.max_op_sectors
    && List.length c.prefetches < 2 && c.ra_lba >= 0
  then begin
    let next_lba =
      match List.rev c.prefetches with
      | last :: _ -> last.pf_lba + last.pf_count
      | [] -> c.ra_lba + Array.length c.ra_data
    in
    let pf =
      { pf_lba = next_lba;
        pf_count = c.ra_size;
        pf_data = [||];
        pf_done = Signal.Latch.create () }
    in
    c.prefetches <- c.prefetches @ [ pf ];
    Sim.spawn ~name:"nfs-prefetch" (fun () ->
        pf.pf_data <- rpc c `Read ~lba:pf.pf_lba ~count:pf.pf_count [||];
        Signal.Latch.set pf.pf_done);
    maybe_start_prefetch c
  end

let read c ~lba ~count =
  Semaphore.with_permit c.c_lock (fun () ->
      let out = Content.zeroes ~count in
      let rec go off =
        if off < count then begin
          let l = lba + off in
          if in_readahead c ~lba:l ~count:1 then begin
            (* Serve as much as possible from the cached window. *)
            let avail = c.ra_lba + Array.length c.ra_data - l in
            let n = min avail (count - off) in
            Content.blit c.ra_data (l - c.ra_lba) out off n;
            go (off + n)
          end
          else begin
            let want = count - off in
            (* An in-flight prefetch covering this miss: wait for it. *)
            match c.prefetches with
            | pf :: rest when pf.pf_lba = l ->
              Signal.Latch.wait pf.pf_done;
              c.prefetches <- rest;
              c.ra_lba <- pf.pf_lba;
              c.ra_data <- pf.pf_data;
              maybe_start_prefetch c;
              go off
            | _ ->
              (* Random miss: discard stale prefetches (their processes
                 finish harmlessly in the background). *)
              c.prefetches <- [];
              (* Adaptive read-ahead: a miss continuing the previous
                 window doubles it (sequential stream detected); a
                 random miss resets it. *)
              (if c.c_params.readahead_sectors > 0 then
                 if c.ra_lba >= 0 && l = c.ra_lba + Array.length c.ra_data
                 then
                   c.ra_size <-
                     min c.c_params.max_op_sectors (c.ra_size * 2)
                 else c.ra_size <- c.c_params.readahead_sectors);
              let fetch =
                if c.c_params.readahead_sectors > 0 then max want c.ra_size
                else want
              in
              let fetch = min fetch c.c_params.max_op_sectors in
              let data = rpc c `Read ~lba:l ~count:fetch [||] in
              if c.c_params.readahead_sectors > 0 then begin
                c.ra_lba <- l;
                c.ra_data <- data
              end;
              maybe_start_prefetch c;
              let n = min fetch want in
              Content.blit data 0 out off n;
              go (off + n)
          end
        end
      in
      go 0;
      out)

let write c ~lba ~count data =
  if Array.length data <> count then
    invalid_arg "Remote_block.write: data length mismatch";
  (* Invalidate read-ahead overlapping the write. *)
  if c.ra_lba >= 0 && lba < c.ra_lba + Array.length c.ra_data
     && c.ra_lba < lba + count
  then c.ra_lba <- -1;
  (* Write-behind: up to 4 dirty windows in flight (NFS async writes /
     iSCSI command queuing); the caller only blocks when all slots are
     busy. *)
  let rec go off =
    if off < count then begin
      let n = min c.c_params.max_op_sectors (count - off) in
      Semaphore.acquire c.wb_slots;
      let sub = Array.sub data off n in
      let wlba = lba + off in
      Sim.spawn ~name:"write-behind" (fun () ->
          ignore (rpc c `Write ~lba:wlba ~count:n sub : Content.t array);
          Semaphore.release c.wb_slots);
      go (off + n)
    end
  in
  Semaphore.with_permit c.c_lock (fun () -> go 0)
