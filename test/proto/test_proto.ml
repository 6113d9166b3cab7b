(* Tests for the network storage protocols: AoE codec, client
   retransmission/reassembly, vblade target, iSCSI/NFS baselines. *)

module Sim = Bmcast_engine.Sim
module Time = Bmcast_engine.Time
module Content = Bmcast_storage.Content
module Disk = Bmcast_storage.Disk
module Fabric = Bmcast_net.Fabric
module Aoe = Bmcast_proto.Aoe
module Aoe_client = Bmcast_proto.Aoe_client
module Vblade = Bmcast_proto.Vblade
module Remote_block = Bmcast_proto.Remote_block

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let content_testable =
  Alcotest.testable (fun f c -> Content.pp f (Content.view c)) Content.equal

let view_testable = Alcotest.testable Content.pp ( = )

(* --- Aoe codec --- *)

let sample_header =
  { Aoe.major = 7;
    minor = 3;
    command = Aoe.Ata_read;
    tag = 0x00ABCD;
    frag = 5;
    is_response = true;
    error = false;
    lba = 0x1234_5678_9A;
    count = 17 }

let test_aoe_roundtrip () =
  let b = Aoe.encode_header sample_header in
  check_int "length" Aoe.header_bytes (Bytes.length b);
  let h = Aoe.decode_header b in
  check_bool "roundtrip" true (h = sample_header)

let prop_aoe_roundtrip =
  let gen =
    QCheck.Gen.(
      let* major = int_bound 0xFFFF in
      let* minor = int_bound 0xFF in
      let* cmd = int_bound 2 in
      let* tag = int_bound 0xFF_FFFF in
      let* frag = int_bound 0xFF in
      let* is_response = bool in
      let* error = bool in
      let* lba = int_bound 0xFFFF_FFFF (* plenty *) in
      let* count = int_bound 0xFFFF in
      return
        { Aoe.major;
          minor;
          command =
            (match cmd with
            | 0 -> Aoe.Ata_read
            | 1 -> Aoe.Ata_write
            | _ -> Aoe.Query_config);
          tag;
          frag;
          is_response;
          error;
          lba;
          count })
  in
  QCheck.Test.make ~name:"aoe header encode/decode roundtrip" ~count:500
    (QCheck.make gen) (fun h ->
      Aoe.decode_header (Aoe.encode_header h) = h)

let test_aoe_rejects_out_of_range () =
  check_bool "bad major" true
    (try
       ignore (Aoe.encode_header { sample_header with Aoe.major = 0x1_0000 } : Bytes.t);
       false
     with Invalid_argument _ -> true);
  check_bool "bad tag" true
    (try
       ignore (Aoe.encode_header { sample_header with Aoe.tag = 0x100_0000 } : Bytes.t);
       false
     with Invalid_argument _ -> true)

let test_aoe_rejects_short_buffer () =
  check_bool "short" true
    (try
       ignore (Aoe.decode_header (Bytes.create 10) : Aoe.header);
       false
     with Invalid_argument _ -> true)

let test_aoe_max_sectors () =
  check_int "jumbo" 17 (Aoe.max_sectors ~mtu:9000);
  check_int "standard" 2 (Aoe.max_sectors ~mtu:1500)

let test_aoe_wire_size () =
  check_int "wire" (Aoe.header_bytes + 512) (Aoe.wire_size ~sectors:1)

(* --- client + vblade end to end --- *)

type rig = {
  sim : Sim.t;
  fab : Fabric.t;
  server_disk : Disk.t;
  vblade : Vblade.t;
  client : Aoe_client.t;
}

let small = { Disk.hdd_constellation2 with Disk.capacity_sectors = 1 lsl 22 }

(* [tap] sees every frame the client's port receives, before the
   client. *)
let make_rig ?(loss = 0.0) ?(workers = 8) ?(mtu = 9000) ?timeout
    ?max_read_sectors ?(tap = fun (_ : Aoe.frame) -> ()) () =
  let sim = Sim.create () in
  let fab = Fabric.create sim ~mtu ~loss_rate:loss () in
  let server_disk = Disk.create sim small in
  Disk.fill_with_image server_disk;
  let vblade = Vblade.create sim ~fabric:fab ~name:"vblade" ~disk:server_disk ~workers () in
  (* Client transport: a dedicated fabric port feeding the client. *)
  let client_ref = ref None in
  let port =
    Fabric.attach fab ~name:"client" (fun pkt ->
        match pkt.Bmcast_net.Packet.payload with
        | Aoe.Frame f ->
          tap f;
          Option.iter (fun c -> Aoe_client.on_frame c f) !client_ref
        | _ -> ())
  in
  let send hdr data = Aoe.send port ~dst:(Vblade.port_id vblade) hdr data in
  let client = Aoe_client.create sim ~send ~mtu ?timeout ?max_read_sectors () in
  client_ref := Some client;
  { sim; fab; server_disk; vblade; client }

let run_in rig f =
  let out = ref None in
  Sim.spawn_at rig.sim (Sim.now rig.sim) (fun () -> out := Some (f ()));
  Sim.run rig.sim;
  Option.get !out

let test_query_capacity () =
  let rig = make_rig () in
  let cap = run_in rig (fun () -> Aoe_client.query_capacity rig.client) in
  check_int "capacity" (Disk.capacity_sectors rig.server_disk) cap

let test_client_read_small () =
  let rig = make_rig () in
  let data = run_in rig (fun () -> Aoe_client.read rig.client ~lba:5000 ~count:8) in
  Alcotest.(check (array content_testable))
    "image data" (Content.image_sectors ~lba:5000 ~count:8) data

let test_client_read_large_fragments () =
  (* 1 MB read: one command, many jumbo fragments reassembled. *)
  let rig = make_rig () in
  let data = run_in rig (fun () -> Aoe_client.read rig.client ~lba:0 ~count:2048) in
  check_int "length" 2048 (Array.length data);
  check_bool "all sectors correct" true
    (Array.for_all2 Content.equal data (Content.image_sectors ~lba:0 ~count:2048));
  check_int "no retransmits" 0 (Aoe_client.retransmits rig.client)

let test_client_write_roundtrip () =
  let rig = make_rig () in
  let payload = Content.data_sectors ~count:100 in
  run_in rig (fun () -> Aoe_client.write rig.client ~lba:777 ~count:100 payload);
  Alcotest.(check (array view_testable))
    "server disk updated" (Array.map Content.view payload)
    (Disk.peek rig.server_disk ~lba:777 ~count:100)

let test_client_recovers_from_loss () =
  (* 20% frame loss: reads still complete via retransmission. *)
  let rig = make_rig ~loss:0.2 ~timeout:(Time.ms 5) () in
  let data = run_in rig (fun () -> Aoe_client.read rig.client ~lba:100 ~count:512) in
  check_bool "data intact" true
    (Array.for_all2 Content.equal data (Content.image_sectors ~lba:100 ~count:512));
  check_bool "retransmits happened" true (Aoe_client.retransmits rig.client > 0)

let test_client_timeout_raises () =
  (* 100% loss: command exhausts retries. *)
  let rig = make_rig ~loss:1.0 ~timeout:(Time.ms 1) () in
  let raised =
    run_in rig (fun () ->
        try
          ignore (Aoe_client.read rig.client ~lba:0 ~count:1 : Content.t array);
          false
        with Aoe_client.Timeout _ -> true)
  in
  check_bool "timeout raised" true raised

let test_target_rejects_out_of_range () =
  let rig = make_rig () in
  let raised =
    run_in rig (fun () ->
        try
          ignore
            (Aoe_client.read rig.client
               ~lba:(Disk.capacity_sectors rig.server_disk)
               ~count:8
              : Content.t array);
          false
        with Aoe_client.Target_error _ -> true)
  in
  check_bool "target error surfaced" true raised;
  (* The target survives and keeps serving. *)
  let data = run_in rig (fun () -> Aoe_client.read rig.client ~lba:0 ~count:8) in
  check_bool "target still alive" true
    (Array.for_all2 Content.equal data (Content.image_sectors ~lba:0 ~count:8))

let test_client_duplicate_fragments_harmless () =
  (* Force a retransmission via a slow first response: use tiny timeout
     so the client re-sends while the response is in flight; duplicates
     must not corrupt assembly. *)
  let rig = make_rig ~timeout:(Time.ms 3) () in
  let data = run_in rig (fun () -> Aoe_client.read rig.client ~lba:42 ~count:1024) in
  check_bool "data intact despite duplicates" true
    (Array.for_all2 Content.equal data (Content.image_sectors ~lba:42 ~count:1024))

let prop_client_correct_under_loss =
  (* Any mix of reads and writes, at any loss rate up to 15%, ends with
     every read returning exactly the server's current content. Reads of
     up to 63 sectors span up to three commands of at least 21 sectors,
     so a late duplicate of one command can arrive while the next
     reassembles into the same output array. *)
  QCheck.Test.make ~name:"aoe client correct under random loss" ~count:12
    QCheck.(triple (int_bound 1000) (int_bound 15) (int_range 21 64))
    (fun (seed, loss_pct, max_read_sectors) ->
      let rig =
        make_rig
          ~loss:(float_of_int loss_pct /. 100.0)
          ~timeout:(Time.ms 5) ~max_read_sectors ()
      in
      let ok = ref true in
      Sim.spawn_at rig.sim Time.zero (fun () ->
          let prng = Bmcast_engine.Prng.create seed in
          let written = Hashtbl.create 16 in
          for _ = 0 to 19 do
            let lba = Bmcast_engine.Prng.int prng 100_000 in
            let count = 1 + Bmcast_engine.Prng.int prng 63 in
            if Bmcast_engine.Prng.bool prng then begin
              let data = Content.data_sectors ~count in
              Aoe_client.write rig.client ~lba ~count data;
              Array.iteri (fun i c -> Hashtbl.replace written (lba + i) c) data
            end
            else begin
              let data = Aoe_client.read rig.client ~lba ~count in
              Array.iteri
                (fun i c ->
                  let expect =
                    Option.value
                      (Hashtbl.find_opt written (lba + i))
                      ~default:(Content.image (lba + i))
                  in
                  if not (Content.equal c expect) then ok := false)
                data
            end
          done);
      Sim.run rig.sim;
      !ok)

let test_jumbo_vs_standard_frames () =
  (* Jumbo frames: fewer, larger frames for the same payload. *)
  let count_frames mtu =
    let rig = make_rig ~mtu () in
    ignore (run_in rig (fun () -> Aoe_client.read rig.client ~lba:0 ~count:1024));
    Fabric.frames_sent rig.fab
  in
  let jumbo = count_frames 9000 and standard = count_frames 1500 in
  check_bool
    (Printf.sprintf "jumbo %d << standard %d" jumbo standard)
    true
    (jumbo * 5 < standard)

let test_vblade_thread_pool_throughput () =
  (* The §4.2 claim: single-threaded vblade bottlenecks large read
     streams; the thread pool restores throughput. *)
  let measure workers =
    let rig = make_rig ~workers ~timeout:(Time.ms 500) () in
    let finish =
      run_in rig (fun () ->
          (* Issue 64 x 512 KB reads back to back from 4 concurrent
             streams to keep the server busy. *)
          let done_count = ref 0 in
          let all_done = Bmcast_engine.Signal.Latch.create () in
          for s = 0 to 3 do
            Sim.spawn (fun () ->
                for i = 0 to 15 do
                  ignore
                    (Aoe_client.read rig.client
                       ~lba:((s * 16384) + (i * 1024))
                       ~count:1024
                      : Content.t array)
                done;
                incr done_count;
                if !done_count = 4 then Bmcast_engine.Signal.Latch.set all_done)
          done;
          Bmcast_engine.Signal.Latch.wait all_done;
          Sim.clock ())
    in
    float_of_int (64 * 1024 * 512) /. Time.to_float_s finish
  in
  let single = measure 1 and pooled = measure 8 in
  check_bool
    (Printf.sprintf "pooled %.1f MB/s > single %.1f MB/s" (pooled /. 1e6)
       (single /. 1e6))
    true
    (pooled > single *. 1.15)

(* --- Remote_block --- *)

let rb_rig protocol =
  let sim = Sim.create () in
  let fab = Fabric.create sim () in
  let disk = Disk.create sim small in
  Disk.fill_with_image disk;
  let server = Remote_block.create_server sim ~fabric:fab ~name:"server" ~disk protocol in
  let client = Remote_block.connect sim ~fabric:fab ~name:"client" server in
  (sim, disk, client)

let rb_run sim f =
  let out = ref None in
  Sim.spawn_at sim Time.zero (fun () -> out := Some (f ()));
  Sim.run sim;
  Option.get !out

let test_iscsi_read_write () =
  let sim, disk, client = rb_rig Remote_block.Iscsi in
  let data = rb_run sim (fun () ->
      let d = Remote_block.read client ~lba:1000 ~count:64 in
      Remote_block.write client ~lba:5000 ~count:4 (Content.data_sectors ~count:4);
      d)
  in
  check_bool "read data" true
    (Array.for_all2 Content.equal data (Content.image_sectors ~lba:1000 ~count:64));
  check_bool "write landed" true
    (match Content.view (Disk.sector disk 5000) with
     | Content.Data _ -> true
     | _ -> false)

let test_nfs_readahead_reduces_ops () =
  (* Sequential 4 KB reads: NFS read-ahead batches them into far fewer
     wire operations than iSCSI without read-ahead. *)
  let seq_read protocol =
    let sim, _, client = rb_rig protocol in
    rb_run sim (fun () ->
        for i = 0 to 127 do
          ignore (Remote_block.read client ~lba:(i * 8) ~count:8 : Content.t array)
        done;
        Remote_block.ops_issued client)
  in
  let nfs_ops = seq_read Remote_block.Nfs in
  let iscsi_ops = seq_read Remote_block.Iscsi in
  check_bool
    (Printf.sprintf "nfs %d ops << iscsi %d ops" nfs_ops iscsi_ops)
    true (nfs_ops * 4 < iscsi_ops)

let test_rb_large_read_chunks () =
  let sim, _, client = rb_rig Remote_block.Iscsi in
  let data = rb_run sim (fun () -> Remote_block.read client ~lba:0 ~count:2048) in
  check_int "length" 2048 (Array.length data);
  check_bool "content" true
    (Array.for_all2 Content.equal data (Content.image_sectors ~lba:0 ~count:2048))

let test_iscsi_rate_reasonable () =
  (* Bulk sequential reads in dd-sized (4 MB) requests should approach
     (but not exceed) GbE line rate; the paper measured ~100 MB/s for
     image copying. A single synchronous stream stays somewhat below
     line rate (image copying uses two, see Image_copy). *)
  let sim, _, client = rb_rig Remote_block.Iscsi in
  let elapsed = rb_run sim (fun () ->
      let t0 = Sim.clock () in
      for i = 0 to 31 do
        ignore (Remote_block.read client ~lba:(i * 8192) ~count:8192 : Content.t array)
      done;
      Time.diff (Sim.clock ()) t0)
  in
  let rate = float_of_int (128 * 1024 * 1024) /. Time.to_float_s elapsed /. 1e6 in
  check_bool (Printf.sprintf "rate %.1f MB/s in [70,125]" rate) true
    (rate > 70.0 && rate < 125.0)

(* --- gossip codec --- *)

module Gossip = Bmcast_proto.Gossip

let summary_of (chunks, held) =
  let s = Gossip.create ~chunks in
  List.iter (fun c -> Gossip.set s (c mod chunks)) held;
  s

let arb_summary_spec =
  QCheck.(
    pair (int_range 1 200) (small_list (int_bound 199))
    |> set_print (fun (chunks, held) ->
           Printf.sprintf "chunks=%d held=[%s]" chunks
             (String.concat ";" (List.map string_of_int held))))

let prop_gossip_wire_roundtrip =
  QCheck.Test.make ~name:"gossip encode/decode round-trips" ~count:200
    QCheck.(triple arb_summary_spec (int_bound 0xFFFF) (int_bound 1000))
    (fun (spec, origin, epoch) ->
      let m = { Gossip.origin; epoch; summary = summary_of spec } in
      let b = Gossip.encode m in
      Bytes.length b = Gossip.wire_size m
      &&
      let m' = Gossip.decode b in
      m'.Gossip.origin = origin
      && m'.Gossip.epoch = epoch
      && Gossip.equal m'.Gossip.summary m.Gossip.summary)

let prop_gossip_runs_canonical =
  QCheck.Test.make ~name:"gossip runs are canonical and invert" ~count:200
    arb_summary_spec (fun spec ->
      let s = summary_of spec in
      let rs = Gossip.runs s in
      (* maximal coalescing: non-empty, ascending, separated by gaps *)
      let rec canonical prev_end = function
        | [] -> true
        | (start, len) :: rest ->
          len >= 1 && start > prev_end && canonical (start + len) rest
      in
      canonical (-1) rs
      && List.fold_left (fun a (_, l) -> a + l) 0 rs = Gossip.cardinal s
      && Gossip.equal (Gossip.of_runs ~chunks:(Gossip.chunks s) rs) s)

let prop_gossip_merge_commutative =
  QCheck.Test.make ~name:"gossip merge commutes" ~count:200
    QCheck.(pair arb_summary_spec (small_list (int_bound 199)))
    (fun ((chunks, held_a), held_b) ->
      let a = summary_of (chunks, held_a)
      and b = summary_of (chunks, held_b) in
      Gossip.equal (Gossip.merge a b) (Gossip.merge b a))

let prop_gossip_merge_idempotent_associative =
  QCheck.Test.make ~name:"gossip merge idempotent + associative" ~count:200
    QCheck.(
      triple arb_summary_spec (small_list (int_bound 199))
        (small_list (int_bound 199)))
    (fun ((chunks, ha), hb, hc) ->
      let a = summary_of (chunks, ha)
      and b = summary_of (chunks, hb)
      and c = summary_of (chunks, hc) in
      Gossip.equal (Gossip.merge a a) a
      && Gossip.equal
           (Gossip.merge (Gossip.merge a b) c)
           (Gossip.merge a (Gossip.merge b c))
      && Gossip.cardinal (Gossip.merge a b) >= Gossip.cardinal a)

(* Hand-built wire images for the rejection paths. *)
let raw_gossip ~chunks rs =
  let put32 b off v =
    Bytes.set_uint8 b off ((v lsr 24) land 0xFF);
    Bytes.set_uint8 b (off + 1) ((v lsr 16) land 0xFF);
    Bytes.set_uint8 b (off + 2) ((v lsr 8) land 0xFF);
    Bytes.set_uint8 b (off + 3) (v land 0xFF)
  in
  let n = List.length rs in
  let b = Bytes.make (16 + (8 * n)) '\000' in
  Bytes.set_uint8 b 0 0xB7;
  Bytes.set_uint8 b 1 1;
  put32 b 10 chunks;
  Bytes.set_uint8 b 14 ((n lsr 8) land 0xFF);
  Bytes.set_uint8 b 15 (n land 0xFF);
  List.iteri
    (fun i (start, len) ->
      put32 b (16 + (8 * i)) start;
      put32 b (16 + (8 * i) + 4) len)
    rs;
  b

let test_gossip_decode_rejects () =
  let rejects label b =
    check_bool label true
      (try
         ignore (Gossip.decode b : Gossip.msg);
         false
       with Invalid_argument _ -> true)
  in
  (* the canonical image decodes *)
  ignore (Gossip.decode (raw_gossip ~chunks:10 [ (0, 2); (4, 3) ]) : Gossip.msg);
  rejects "short buffer" (Bytes.make 8 '\000');
  rejects "bad magic"
    (let b = raw_gossip ~chunks:10 [ (0, 2) ] in
     Bytes.set_uint8 b 0 0x7B;
     b);
  rejects "bad version"
    (let b = raw_gossip ~chunks:10 [ (0, 2) ] in
     Bytes.set_uint8 b 1 9;
     b);
  rejects "empty run" (raw_gossip ~chunks:10 [ (0, 0) ]);
  rejects "adjacent runs not coalesced" (raw_gossip ~chunks:10 [ (0, 2); (2, 3) ]);
  rejects "overlapping runs" (raw_gossip ~chunks:10 [ (0, 4); (2, 3) ]);
  rejects "descending runs" (raw_gossip ~chunks:10 [ (5, 2); (0, 2) ]);
  rejects "run past end" (raw_gossip ~chunks:10 [ (8, 4) ]);
  rejects "truncated payload"
    (let b = raw_gossip ~chunks:10 [ (0, 2) ] in
     Bytes.sub b 0 (Bytes.length b - 4))

(* --- multicast carousel + client subscription --- *)

type mrig = {
  msim : Sim.t;
  mfab : Fabric.t;
  mvblade : Vblade.t;
  mclient : Aoe_client.t;
  mport : Fabric.port;
  mgroup : int;
}

let make_mcast_rig ?(mtu = 9000) () =
  let sim = Sim.create () in
  let fab = Fabric.create sim ~mtu () in
  let disk = Disk.create sim small in
  Disk.fill_with_image disk;
  let vblade = Vblade.create sim ~fabric:fab ~name:"vblade" ~disk () in
  let client_ref = ref None in
  let port =
    Fabric.attach fab ~name:"client" (fun pkt ->
        match pkt.Bmcast_net.Packet.payload with
        | Aoe.Frame f -> Option.iter (fun c -> Aoe_client.on_frame c f) !client_ref
        | _ -> ())
  in
  let send hdr data = Aoe.send port ~dst:(Vblade.port_id vblade) hdr data in
  let client = Aoe_client.create sim ~send ~mtu () in
  client_ref := Some client;
  let group = Fabric.mcast_group fab in
  Fabric.mcast_join port ~group;
  { msim = sim; mfab = fab; mvblade = vblade; mclient = client;
    mport = port; mgroup = group }

let test_mcast_carousel_reaches_subscriber () =
  let r = make_mcast_rig () in
  let count = 256 in
  let seen = Array.make count 0 in
  let wrong = ref 0 in
  Aoe_client.subscribe_mcast r.mclient (fun ~lba ~count:n data ->
      for i = 0 to n - 1 do
        if lba + i < count then begin
          seen.(lba + i) <- seen.(lba + i) + 1;
          if not (Content.equal data.(i) (Content.image (lba + i))) then
            incr wrong
        end
      done);
  Vblade.multicast r.mvblade ~group:r.mgroup ~lba:0 ~count ~passes:2 ();
  Sim.run r.msim;
  check_bool "frames observed" true (Aoe_client.mcast_frames r.mclient > 0);
  Array.iteri
    (fun lba n -> check_int (Printf.sprintf "sector %d seen twice" lba) 2 n)
    seen;
  check_int "payload matches the image" 0 !wrong;
  check_int "tx accounting" (2 * count * 512)
    (Vblade.mcast_bytes_sent r.mvblade)

let test_mcast_tag_reserved_for_carousel () =
  (* Unsolicited tag-0 frames must not disturb the pending table: a
     normal read issued while the carousel streams still completes and
     returns the right data. *)
  let r = make_mcast_rig () in
  Aoe_client.subscribe_mcast r.mclient (fun ~lba:_ ~count:_ _ -> ());
  Vblade.multicast r.mvblade ~group:r.mgroup ~lba:0 ~count:512 ~passes:1 ();
  let out = ref None in
  Sim.spawn_at r.msim (Sim.now r.msim) (fun () ->
      Sim.sleep (Time.ms 1);
      out := Some (Aoe_client.read r.mclient ~lba:9000 ~count:16));
  Sim.run r.msim;
  (match !out with
  | None -> Alcotest.fail "read never completed"
  | Some data ->
    Alcotest.(check (array content_testable))
      "read correct under carousel" (Content.image_sectors ~lba:9000 ~count:16)
      data);
  check_bool "carousel frames flowed" true (Aoe_client.mcast_frames r.mclient > 0)

let test_mcast_unsubscribed_client_ignores () =
  let r = make_mcast_rig () in
  (* No subscription: the frames arrive at the port and are dropped
     without touching the client. *)
  Vblade.multicast r.mvblade ~group:r.mgroup ~lba:0 ~count:64 ~passes:1 ();
  Sim.run r.msim;
  check_int "nothing counted" 0 (Aoe_client.mcast_frames r.mclient);
  check_bool "carousel still transmitted" true
    (Vblade.mcast_frames_sent r.mvblade > 0)

let test_mcast_crash_suppresses_pass () =
  (* The epoch guard: a crash mid-pass silences the carousel; after
     restart the next pass streams in full. *)
  let r = make_mcast_rig () in
  let got = ref 0 in
  Aoe_client.subscribe_mcast r.mclient (fun ~lba:_ ~count:n _ -> got := !got + n);
  let count = 4096 in
  Vblade.multicast r.mvblade ~group:r.mgroup ~lba:0 ~count ~passes:2
    ~gap:(Time.ms 10) ();
  (* per_sector_cpu puts a full pass well past 1 ms: crash mid-stream. *)
  Sim.schedule r.msim (Time.ms 1) (fun () -> Vblade.crash r.mvblade);
  Sim.schedule r.msim (Time.ms 50) (fun () -> Vblade.restart r.mvblade);
  Sim.run r.msim;
  let full = 2 * count in
  check_bool "first pass truncated" true (!got < full);
  check_bool "second pass streamed" true (!got >= count)

(* A crash as the first fragment of a 1,024-sector answer reaches the
   client cuts the stream short (the socket buffer holds 8 fragments of
   61): the server stops streaming and does not count the command. The
   retransmission after the restart is served, and counted, once. *)
let test_vblade_crash_cuts_read () =
  let rig_ref = ref None in
  let tap frame =
    match !rig_ref with
    | Some r when frame.Aoe.hdr.Aoe.is_response && Vblade.crashes r.vblade = 0
      ->
      Vblade.crash r.vblade;
      Sim.schedule r.sim
        (Time.add (Sim.now r.sim) (Time.ms 5))
        (fun () -> Vblade.restart r.vblade)
    | Some _ | None -> ()
  in
  let rig = make_rig ~timeout:(Time.ms 20) ~tap () in
  rig_ref := Some rig;
  let count = 1024 in
  let data = run_in rig (fun () -> Aoe_client.read rig.client ~lba:0 ~count) in
  check_bool "read completes" true
    (Array.for_all2 Content.equal data (Content.image_sectors ~lba:0 ~count));
  check_int "crashed once" 1 (Vblade.crashes rig.vblade);
  check_int "one retransmission" 1 (Aoe_client.retransmits rig.client);
  check_int "only the answered command served" (count * 512)
    (Vblade.bytes_served rig.vblade)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "proto"
    [ ( "aoe-codec",
        [ tc "roundtrip" `Quick test_aoe_roundtrip;
          QCheck_alcotest.to_alcotest prop_aoe_roundtrip;
          tc "rejects out of range" `Quick test_aoe_rejects_out_of_range;
          tc "rejects short buffer" `Quick test_aoe_rejects_short_buffer;
          tc "max sectors" `Quick test_aoe_max_sectors;
          tc "wire size" `Quick test_aoe_wire_size ] );
      ( "aoe-client",
        [ tc "query capacity" `Quick test_query_capacity;
          tc "read small" `Quick test_client_read_small;
          tc "read large fragments" `Quick test_client_read_large_fragments;
          tc "write roundtrip" `Quick test_client_write_roundtrip;
          tc "recovers from loss" `Quick test_client_recovers_from_loss;
          tc "timeout raises" `Quick test_client_timeout_raises;
          tc "target rejects out of range" `Quick test_target_rejects_out_of_range;
          tc "duplicate fragments harmless" `Quick test_client_duplicate_fragments_harmless;
          QCheck_alcotest.to_alcotest prop_client_correct_under_loss;
          tc "jumbo vs standard" `Quick test_jumbo_vs_standard_frames ] );
      ( "vblade",
        [ tc "thread pool throughput" `Quick test_vblade_thread_pool_throughput;
          tc "crash cuts a read short" `Quick test_vblade_crash_cuts_read ] );
      ( "gossip",
        [ QCheck_alcotest.to_alcotest prop_gossip_wire_roundtrip;
          QCheck_alcotest.to_alcotest prop_gossip_runs_canonical;
          QCheck_alcotest.to_alcotest prop_gossip_merge_commutative;
          QCheck_alcotest.to_alcotest prop_gossip_merge_idempotent_associative;
          tc "decode rejects malformed" `Quick test_gossip_decode_rejects ] );
      ( "mcast",
        [ tc "carousel reaches subscriber" `Quick
            test_mcast_carousel_reaches_subscriber;
          tc "tag 0 reserved for carousel" `Quick
            test_mcast_tag_reserved_for_carousel;
          tc "unsubscribed client ignores" `Quick
            test_mcast_unsubscribed_client_ignores;
          tc "crash suppresses pass" `Quick test_mcast_crash_suppresses_pass ] );
      ( "remote-block",
        [ tc "iscsi read write" `Quick test_iscsi_read_write;
          tc "nfs readahead reduces ops" `Quick test_nfs_readahead_reduces_ops;
          tc "large read chunks" `Quick test_rb_large_read_chunks;
          tc "iscsi rate reasonable" `Quick test_iscsi_rate_reasonable ] ) ]
