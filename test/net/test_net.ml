(* Tests for the network substrate: Ethernet fabric, NIC rings, IB. *)

module Sim = Bmcast_engine.Sim
module Time = Bmcast_engine.Time
module Mmio = Bmcast_hw.Mmio
module Irq = Bmcast_hw.Irq
module Packet = Bmcast_net.Packet
module Fabric = Bmcast_net.Fabric
module Nic = Bmcast_net.Nic
module Ib = Bmcast_net.Ib

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Fabric --- *)

let test_fabric_delivery () =
  let sim = Sim.create () in
  let fab = Fabric.create sim () in
  let got = ref [] in
  let a = Fabric.attach fab ~name:"a" (fun _ -> ()) in
  let b = Fabric.attach fab ~name:"b" (fun p -> got := p :: !got) in
  Sim.spawn_at sim Time.zero (fun () ->
      Fabric.send a ~dst:(Fabric.port_id b) ~size_bytes:1000 (Packet.Raw "hi"));
  Sim.run sim;
  check_int "one frame" 1 (List.length !got);
  let p = List.hd !got in
  check_int "src" (Fabric.port_id a) p.Packet.src;
  check_int "size" 1000 p.Packet.size_bytes

let test_fabric_serialization_time () =
  (* 1 MB spread over jumbo frames on GbE should take ~8.4 ms one-way
     (two serializations: uplink + egress, pipelined, so ~1x + 1 frame). *)
  let sim = Sim.create () in
  let fab = Fabric.create sim () in
  let done_at = ref Time.zero in
  let frames = 112 (* ~1 MB / 9038 *) in
  let received = ref 0 in
  let a = Fabric.attach fab ~name:"a" (fun _ -> ()) in
  let b =
    Fabric.attach fab ~name:"b" (fun _ ->
        incr received;
        if !received = frames then done_at := Sim.now sim)
  in
  Sim.spawn_at sim Time.zero (fun () ->
      for _ = 1 to frames do
        Fabric.send a ~dst:(Fabric.port_id b) ~size_bytes:9038 (Packet.Raw "x")
      done);
  Sim.run sim;
  let secs = Time.to_float_s !done_at in
  let expected = float_of_int (frames * 9038) /. 125e6 in
  check_bool
    (Printf.sprintf "%.4fs close to %.4fs" secs expected)
    true
    (secs > expected *. 0.95 && secs < expected *. 1.3)

let test_fabric_mtu_enforced () =
  let sim = Sim.create () in
  let fab = Fabric.create sim ~mtu:1500 () in
  let a = Fabric.attach fab ~name:"a" (fun _ -> ()) in
  check_bool "oversize rejected" true
    (try
       Fabric.send a ~dst:0 ~size_bytes:9038 (Packet.Raw "x");
       false
     with Invalid_argument _ -> true)

let test_fabric_loss () =
  let sim = Sim.create () in
  let fab = Fabric.create sim ~loss_rate:0.5 () in
  let received = ref 0 in
  let a = Fabric.attach fab ~name:"a" (fun _ -> ()) in
  let b = Fabric.attach fab ~name:"b" (fun _ -> incr received) in
  Sim.spawn_at sim Time.zero (fun () ->
      for _ = 1 to 1000 do
        Fabric.send a ~dst:(Fabric.port_id b) ~size_bytes:100 (Packet.Raw "x")
      done);
  Sim.run sim;
  check_bool "some lost" true (Fabric.frames_dropped fab > 300);
  check_bool "some delivered" true (!received > 300);
  check_int "conservation" 1000 (!received + Fabric.frames_dropped fab)

let test_fabric_gilbert_bursty_loss () =
  (* Gilbert-Elliott chain with a lossless good state and a fully lossy
     bad state: all drops come from bad-state visits, so losses arrive
     in runs of consecutive frames — the burst pattern the AoE
     retransmission extension has to survive. *)
  let sim = Sim.create () in
  let fab = Fabric.create sim () in
  Fabric.set_loss_model fab
    (Fabric.Gilbert
       { p_enter_bad = 0.05; p_exit_bad = 0.25; loss_good = 0.0; loss_bad = 1.0 });
  let n = 2000 in
  let got = ref [] in
  let a = Fabric.attach fab ~name:"a" (fun _ -> ()) in
  let b =
    Fabric.attach fab ~name:"b" (fun p ->
        match p.Packet.payload with
        | Packet.Raw s -> got := int_of_string s :: !got
        | _ -> ())
  in
  Sim.spawn_at sim Time.zero (fun () ->
      for i = 0 to n - 1 do
        Fabric.send a ~dst:(Fabric.port_id b) ~size_bytes:100
          (Packet.Raw (string_of_int i))
      done);
  Sim.run sim;
  let received = List.length !got in
  check_int "conservation" n (received + Fabric.frames_dropped fab);
  check_bool "some lost" true (Fabric.frames_dropped fab > 0);
  check_bool "most delivered" true (received > n / 2);
  (* At least one burst: two consecutive frame indices both missing. *)
  let delivered = Array.make n false in
  List.iter (fun i -> delivered.(i) <- true) !got;
  let burst = ref false in
  for i = 0 to n - 2 do
    if (not delivered.(i)) && not delivered.(i + 1) then burst := true
  done;
  check_bool "losses are bursty" true !burst

let test_fabric_link_flap () =
  (* Frames sent while either end's link is down are dropped at the
     switch and counted separately; delivery resumes as soon as the
     link returns — no queued ghosts from the outage. *)
  let sim = Sim.create () in
  let fab = Fabric.create sim () in
  let got = ref [] in
  let a = Fabric.attach fab ~name:"a" (fun _ -> ()) in
  let b =
    Fabric.attach fab ~name:"b" (fun p ->
        match p.Packet.payload with
        | Packet.Raw s -> got := int_of_string s :: !got
        | _ -> ())
  in
  check_bool "links start up" true (Fabric.link_up a && Fabric.link_up b);
  Sim.spawn_at sim ~name:"sender" Time.zero (fun () ->
      for i = 0 to 99 do
        Fabric.send a ~dst:(Fabric.port_id b) ~size_bytes:100
          (Packet.Raw (string_of_int i));
        Sim.sleep (Time.ms 1)
      done);
  Sim.spawn_at sim ~name:"flapper" (Time.ms 30) (fun () ->
      Fabric.set_link_up b false;
      Sim.sleep (Time.ms 30);
      Fabric.set_link_up b true);
  Sim.run sim;
  let received = List.length !got in
  check_int "conservation" 100 (received + Fabric.frames_dropped fab);
  check_int "all drops are link drops" (Fabric.frames_dropped fab)
    (Fabric.link_drops fab);
  check_bool "outage dropped frames" true (Fabric.link_drops fab >= 20);
  check_bool "frames before the flap delivered" true (List.mem 5 !got);
  check_bool "delivery resumed after the flap" true (List.mem 99 !got)

let test_fabric_nic_stall_delays_delivery () =
  (* A stalled destination NIC holds a frame without dropping it. *)
  let sim = Sim.create () in
  let fab = Fabric.create sim () in
  let at = ref Time.zero in
  let a = Fabric.attach fab ~name:"a" (fun _ -> ()) in
  let b = Fabric.attach fab ~name:"b" (fun _ -> at := Sim.now sim) in
  Sim.spawn_at sim Time.zero (fun () ->
      Fabric.stall b (Time.ms 5);
      Fabric.send a ~dst:(Fabric.port_id b) ~size_bytes:100 (Packet.Raw "x"));
  Sim.run sim;
  check_bool "delivered" true (!at > Time.zero);
  check_bool "held until the stall expired" true (!at >= Time.ms 5)

let test_fabric_contention_shares_egress () =
  (* Two senders to one destination: total delivery time ~= sum of both
     at the egress port (the server-saturation effect of §5.1). *)
  let sim = Sim.create () in
  let fab = Fabric.create sim () in
  let received = ref 0 and done_at = ref Time.zero in
  let a = Fabric.attach fab ~name:"a" (fun _ -> ()) in
  let b = Fabric.attach fab ~name:"b" (fun _ -> ()) in
  let dst =
    Fabric.attach fab ~name:"dst" (fun _ ->
        incr received;
        if !received = 200 then done_at := Sim.now sim)
  in
  let send_from p =
    for _ = 1 to 100 do
      Fabric.send p ~dst:(Fabric.port_id dst) ~size_bytes:9038 (Packet.Raw "x")
    done
  in
  Sim.spawn_at sim Time.zero (fun () -> send_from a);
  Sim.spawn_at sim Time.zero (fun () -> send_from b);
  Sim.run sim;
  let secs = Time.to_float_s !done_at in
  let one_sender = float_of_int (100 * 9038) /. 125e6 in
  check_bool "egress saturates" true (secs > 1.9 *. one_sender)

(* --- Nic --- *)

type nic_rig = {
  sim : Sim.t;
  fab : Fabric.t;
  nic : Nic.t;
  peer : Fabric.port;
  peer_rx : Packet.t list ref;
}

let nic_rig () =
  let sim = Sim.create () in
  let fab = Fabric.create sim () in
  let mmio = Mmio.create () in
  let irq = Irq.create sim in
  let nic = Nic.create sim ~mmio ~base:0xE000_0000 ~fabric:fab ~name:"nic" ~irq ~irq_vec:10 in
  let peer_rx = ref [] in
  let peer = Fabric.attach fab ~name:"peer" (fun p -> peer_rx := p :: !peer_rx) in
  { sim; fab; nic; peer; peer_rx }

let test_nic_tx () =
  let r = nic_rig () in
  let h = Nic.raw r.nic in
  let ring = Nic.default_tx_ring r.nic in
  Nic.set_tx_desc r.nic ~ring ~idx:0 ~dst:(Fabric.port_id r.peer) ~size_bytes:500
    (Packet.Raw "one");
  Nic.set_tx_desc r.nic ~ring ~idx:1 ~dst:(Fabric.port_id r.peer) ~size_bytes:600
    (Packet.Raw "two");
  Sim.spawn_at r.sim Time.zero (fun () -> h.Mmio.write Nic.Regs.tdt 2);
  Sim.run r.sim;
  check_int "two frames" 2 (List.length !(r.peer_rx));
  check_int "tdh advanced" 2 (h.Mmio.read Nic.Regs.tdh)

let test_nic_rx_ring () =
  let r = nic_rig () in
  let h = Nic.raw r.nic in
  (* Publish 4 rx buffers. *)
  h.Mmio.write Nic.Regs.rdt 4;
  Sim.spawn_at r.sim Time.zero (fun () ->
      Fabric.send r.peer ~dst:(Fabric.port_id (Nic.port r.nic)) ~size_bytes:700
        (Packet.Raw "hello"));
  Sim.run r.sim;
  check_int "rdh advanced" 1 (h.Mmio.read Nic.Regs.rdh);
  (match Nic.rx_desc r.nic ~ring:(Nic.default_rx_ring r.nic) ~idx:0 with
  | p when p == Nic.no_frame -> Alcotest.fail "no frame in rx ring"
  | p -> check_int "size" 700 p.Packet.size_bytes);
  Nic.clear_rx_desc r.nic ~ring:(Nic.default_rx_ring r.nic) ~idx:0

let test_nic_rx_overflow_drops () =
  let r = nic_rig () in
  (* No buffers published: everything drops. *)
  Sim.spawn_at r.sim Time.zero (fun () ->
      for _ = 1 to 3 do
        Fabric.send r.peer ~dst:(Fabric.port_id (Nic.port r.nic)) ~size_bytes:100
          (Packet.Raw "x")
      done);
  Sim.run r.sim;
  check_int "all dropped" 3 (Nic.rx_dropped r.nic)

let test_nic_rx_irq () =
  let sim = Sim.create () in
  let fab = Fabric.create sim () in
  let mmio = Mmio.create () in
  let irq = Irq.create sim in
  let nic = Nic.create sim ~mmio ~base:0xE000_0000 ~fabric:fab ~name:"nic" ~irq ~irq_vec:10 in
  let fired = ref 0 in
  Irq.register irq ~vec:10 (fun () -> incr fired);
  let peer = Fabric.attach fab ~name:"peer" (fun _ -> ()) in
  let h = Nic.raw nic in
  h.Mmio.write Nic.Regs.rdt 8;
  h.Mmio.write Nic.Regs.ie 1;
  Sim.spawn_at sim Time.zero (fun () ->
      Fabric.send peer ~dst:(Fabric.port_id (Nic.port nic)) ~size_bytes:100
        (Packet.Raw "x"));
  Sim.run sim;
  check_int "irq" 1 !fired

(* Rings are found by address: a ring of the other direction, an
   unaligned or an unknown address is rejected. *)
let test_nic_ring_lookup () =
  let r = nic_rig () in
  let h = Nic.raw r.nic in
  let tx = Nic.alloc_tx_ring r.nic and rx = Nic.alloc_rx_ring r.nic in
  let rejects what msg f =
    match f () with
    | () -> Alcotest.failf "%s: accepted" what
    | exception Invalid_argument m -> Alcotest.(check string) what msg m
  in
  rejects "rx ring as tx" (Printf.sprintf "Nic: no TX ring at 0x%x" rx)
    (fun () -> h.Mmio.write Nic.Regs.tdba rx);
  rejects "tx ring as rx" (Printf.sprintf "Nic: no RX ring at 0x%x" tx)
    (fun () -> h.Mmio.write Nic.Regs.rdba tx);
  rejects "unaligned" (Printf.sprintf "Nic: no TX ring at 0x%x" (tx + 16))
    (fun () -> h.Mmio.write Nic.Regs.tdba (tx + 16));
  rejects "unknown" (Printf.sprintf "Nic: no RX ring at 0x%x" (rx + 0x1000))
    (fun () -> ignore (Nic.rx_desc r.nic ~ring:(rx + 0x1000) ~idx:0 : Packet.t));
  h.Mmio.write Nic.Regs.tdba tx;
  check_int "tdba moved" tx (h.Mmio.read Nic.Regs.tdba)

(* --- Ib --- *)

let test_ib_rdma_latency () =
  let sim = Sim.create () in
  let ib = Ib.create sim in
  let a = Ib.attach ib ~name:"a" and b = Ib.attach ib ~name:"b" in
  let elapsed = ref 0 in
  Sim.spawn_at sim Time.zero (fun () ->
      let t0 = Sim.clock () in
      Ib.rdma a ~dst:b ~bytes:65536;
      elapsed := Time.diff (Sim.clock ()) t0);
  Sim.run sim;
  (* 64 KB at 3.2 GB/s = 20.5 us + 1.3 us base. *)
  check_bool "latency plausible" true
    (!elapsed > Time.us 20 && !elapsed < Time.us 25)

let test_ib_overhead_adds_to_latency () =
  let sim = Sim.create () in
  let ib = Ib.create sim in
  let a = Ib.attach ib ~name:"a" and b = Ib.attach ib ~name:"b" in
  let base = ref 0 and virt = ref 0 in
  Sim.spawn_at sim Time.zero (fun () ->
      let t0 = Sim.clock () in
      Ib.rdma a ~dst:b ~bytes:65536;
      base := Time.diff (Sim.clock ()) t0;
      Ib.set_op_overhead a (Time.us 5);
      let t1 = Sim.clock () in
      Ib.rdma a ~dst:b ~bytes:65536;
      virt := Time.diff (Sim.clock ()) t1);
  Sim.run sim;
  check_int "overhead lands on latency" (Time.us 5) (!virt - !base)

let test_ib_bandwidth_hides_overhead () =
  (* Pipelined posts: per-op overhead below the wire time is hidden, so
     virtualized and bare throughput match (Fig 12's explanation). *)
  let run_with overhead =
    let sim = Sim.create () in
    let ib = Ib.create sim in
    let a = Ib.attach ib ~name:"a" and b = Ib.attach ib ~name:"b" in
    Ib.set_op_overhead a overhead;
    let finish = ref 0 in
    Sim.spawn_at sim Time.zero (fun () ->
        let remaining = ref 1000 in
        for _ = 1 to 1000 do
          Ib.post a ~dst:b ~bytes:65536 ~on_complete:(fun () ->
              decr remaining;
              if !remaining = 0 then finish := Sim.now sim)
        done);
    Sim.run sim;
    float_of_int (1000 * 65536) /. Time.to_float_s !finish
  in
  let bare = run_with 0 and virt = run_with (Time.us 5) in
  check_bool
    (Printf.sprintf "bw %.2f vs %.2f GB/s" (bare /. 1e9) (virt /. 1e9))
    true
    (abs_float (bare -. virt) /. bare < 0.01)

let test_ib_msg_rendezvous () =
  let sim = Sim.create () in
  let ib = Ib.create sim in
  let a = Ib.attach ib ~name:"a" and b = Ib.attach ib ~name:"b" in
  let got = ref 0 in
  Sim.spawn_at sim Time.zero (fun () -> got := Ib.recv_msg b ~src:a);
  Sim.spawn_at sim (Time.ms 1) (fun () -> Ib.send_msg a ~dst:b ~bytes:4096);
  Sim.run sim;
  check_int "message size" 4096 !got

let test_ib_bytes_counted () =
  let sim = Sim.create () in
  let ib = Ib.create sim in
  let a = Ib.attach ib ~name:"a" and b = Ib.attach ib ~name:"b" in
  Sim.spawn_at sim Time.zero (fun () -> Ib.rdma a ~dst:b ~bytes:1234);
  Sim.run sim;
  check_int "counted" 1234 (Ib.bytes_transferred ib)

(* --- fabric hot-path bugfixes + frame pool --- *)

(* A rejected send must not open (and leak) a profiler scope: the old
   code entered "net.send" before validating, so the [invalid_arg] path
   left the scope on the stack and poisoned every later attribution. *)
let test_fabric_send_wait_admits_one_per_frame () =
  (* Nine frames: the uplink takes the first, and the other eight fill
     the socket buffer. Three senders block in order while the first
     frame crosses the switch, before the uplink takes the second. *)
  let sim = Sim.create () in
  let fab = Fabric.create sim () in
  let arrived = ref [] in
  let dst =
    Fabric.attach fab ~name:"dst" (fun f ->
        match f.Packet.payload with
        | Packet.Raw s -> arrived := s :: !arrived
        | _ -> ())
  in
  let src = Fabric.attach fab ~name:"src" (fun _ -> ()) in
  Sim.spawn_at sim Time.zero (fun () ->
      for i = 1 to 9 do
        Fabric.send src ~dst:(Fabric.port_id dst) ~size_bytes:1000
          (Packet.Raw (string_of_int i))
      done);
  let admitted = ref [] in
  List.iter
    (fun name ->
      Sim.spawn_at sim (Time.us 18) (fun () ->
          Fabric.send_wait src ~dst:(Fabric.port_id dst) ~size_bytes:1000
            (Packet.Raw name);
          (* Frames that have left the wire when this sender got in. *)
          admitted := (name, Fabric.port_bytes_out src / 1000) :: !admitted))
    [ "a"; "b"; "c" ];
  Sim.run sim;
  Alcotest.(check (list (pair string int)))
    "one admitted per frame that leaves, in blocking order"
    [ ("a", 2); ("b", 3); ("c", 4) ]
    (List.rev !admitted);
  Alcotest.(check (list string))
    "frames reach the switch in that order"
    [ "1"; "2"; "3"; "4"; "5"; "6"; "7"; "8"; "9"; "a"; "b"; "c" ]
    (List.rev !arrived)

let test_fabric_send_invalid_keeps_profiler_balanced () =
  let prof = Bmcast_obs.Profile.create () in
  let sim = Sim.create ~profile:prof () in
  let fab = Fabric.create sim () in
  let a = Fabric.attach fab ~name:"a" (fun _ -> ()) in
  let b = Fabric.attach fab ~name:"b" (fun _ -> ()) in
  Sim.spawn_at sim Time.zero (fun () ->
      (try
         Fabric.send a ~dst:(Fabric.port_id b) ~size_bytes:1_000_000
           (Packet.Raw "jumbo");
         Alcotest.fail "oversized send must raise"
       with Invalid_argument _ -> ());
      (try
         Fabric.send a ~dst:(Fabric.port_id b) ~size_bytes:0 (Packet.Raw "");
         Alcotest.fail "empty send must raise"
       with Invalid_argument _ -> ());
      Fabric.send a ~dst:(Fabric.port_id b) ~size_bytes:1000 (Packet.Raw "ok"));
  Sim.run sim;
  check_int "balanced scopes" 0 (Bmcast_obs.Profile.mismatches prof);
  let send_calls =
    List.fold_left
      (fun acc r ->
        if r.Bmcast_obs.Profile.row_cat = "net.send" then
          acc + r.Bmcast_obs.Profile.calls
        else acc)
      0
      (Bmcast_obs.Profile.rows prof)
  in
  check_int "only the valid send was scoped" 1 send_calls

let stuck_bad_gilbert =
  (* Enters the bad state on the first forwarded frame and never
     leaves; drops everything while bad. *)
  Fabric.Gilbert
    { p_enter_bad = 1.0; p_exit_bad = 0.0; loss_good = 0.0; loss_bad = 1.0 }

let test_fabric_set_loss_rate_resets_gilbert () =
  let sim = Sim.create () in
  let fab = Fabric.create sim () in
  let a = Fabric.attach fab ~name:"a" (fun _ -> ()) in
  let b = Fabric.attach fab ~name:"b" (fun _ -> ()) in
  Fabric.set_loss_model fab stuck_bad_gilbert;
  Sim.spawn_at sim Time.zero (fun () ->
      Fabric.send a ~dst:(Fabric.port_id b) ~size_bytes:100 (Packet.Raw "x"));
  Sim.run sim;
  check_bool "chain driven into bad state" true (Fabric.loss_in_bad fab);
  Fabric.set_loss_rate fab 0.25;
  check_bool "set_loss_rate resets the channel" false (Fabric.loss_in_bad fab);
  (* And the same contract via set_loss_model, for symmetry. *)
  Fabric.set_loss_model fab stuck_bad_gilbert;
  let c = Fabric.attach fab ~name:"c" (fun _ -> ()) in
  Sim.spawn_at sim (Time.ms 1) (fun () ->
      Fabric.send a ~dst:(Fabric.port_id c) ~size_bytes:100 (Packet.Raw "y"));
  Sim.run sim;
  check_bool "fresh chain re-enters bad from good" true (Fabric.loss_in_bad fab)

(* 10,000 attaches used to re-copy the whole port array each time
   (O(n^2) words); geometric growth keeps this instant, and delivery
   to the last-attached port still works. *)
let test_fabric_attach_scales () =
  let sim = Sim.create () in
  let fab = Fabric.create sim () in
  let n = 10_000 in
  let hits = ref 0 in
  let first = Fabric.attach fab ~name:"p0" (fun _ -> ()) in
  let last = ref first in
  for i = 1 to n - 1 do
    last :=
      Fabric.attach fab ~name:(if i = n - 1 then "plast" else "p")
        (fun _ -> incr hits)
  done;
  check_int "ids are dense" (n - 1) (Fabric.port_id !last);
  Sim.spawn_at sim Time.zero (fun () ->
      Fabric.send first ~dst:(Fabric.port_id !last) ~size_bytes:1000
        (Packet.Raw "hi"));
  Sim.run sim;
  check_int "delivered to last port" 1 !hits

let test_fabric_frame_pool_recycles () =
  let sim = Sim.create () in
  let fab = Fabric.create sim () in
  let a = Fabric.attach fab ~name:"a" (fun _ -> ()) in
  let b = Fabric.attach fab ~name:"b" (fun _ -> ()) in
  Sim.spawn_at sim Time.zero (fun () ->
      for _ = 1 to 50 do
        Fabric.send a ~dst:(Fabric.port_id b) ~size_bytes:100 (Packet.Raw "x");
        Sim.sleep (Time.us 100)
      done);
  Sim.run sim;
  let free = Fabric.pool_free_count fab in
  check_bool "frames returned to the pool" true (free > 0);
  (* Reuse, not one record per send: sends were spaced out, so only a
     handful of frames were ever in flight at once. *)
  check_bool "pool holds in-flight peak, not send count" true (free < 10)

let test_fabric_keep_frame_prevents_aliasing () =
  let sim = Sim.create () in
  let fab = Fabric.create sim () in
  let kept = ref None in
  let a = Fabric.attach fab ~name:"a" (fun _ -> ()) in
  let b =
    Fabric.attach fab ~name:"b" (fun p ->
        match !kept with
        | None ->
          Fabric.keep_frame fab;
          kept := Some p
        | Some _ -> ())
  in
  Sim.spawn_at sim Time.zero (fun () ->
      Fabric.send a ~dst:(Fabric.port_id b) ~size_bytes:111 (Packet.Raw "first");
      Sim.sleep (Time.ms 1);
      for _ = 1 to 10 do
        Fabric.send a ~dst:(Fabric.port_id b) ~size_bytes:222
          (Packet.Raw "later");
        Sim.sleep (Time.ms 1)
      done);
  Sim.run sim;
  match !kept with
  | None -> Alcotest.fail "first frame not delivered"
  | Some p ->
    (* The kept record must not have been recycled under later traffic. *)
    check_int "kept frame size intact" 111 p.Packet.size_bytes;
    check_bool "kept payload intact" true (p.Packet.payload = Packet.Raw "first");
    Fabric.release_frame fab p;
    check_bool "released payload detached" true
      (p.Packet.payload <> Packet.Raw "first")

(* Without [keep_frame], a handler that squirrels the record away sees
   it recycled once delivery returns — payload replaced by the pool
   sentinel. This is the reuse invariant the ownership contract rests
   on: the fabric owns the record after [rx] unless the handler kept it. *)
let test_fabric_unkept_frame_is_recycled () =
  let sim = Sim.create () in
  let fab = Fabric.create sim () in
  let stolen = ref None in
  let a = Fabric.attach fab ~name:"a" (fun _ -> ()) in
  let b =
    Fabric.attach fab ~name:"b" (fun p ->
        if !stolen = None then stolen := Some p)
  in
  Sim.spawn_at sim Time.zero (fun () ->
      Fabric.send a ~dst:(Fabric.port_id b) ~size_bytes:333 (Packet.Raw "gone"));
  Sim.run sim;
  match !stolen with
  | None -> Alcotest.fail "frame not delivered"
  | Some p ->
    check_bool "payload recycled after rx returned" true
      (p.Packet.payload <> Packet.Raw "gone")

let test_fabric_pooling_off_allocates_fresh () =
  let sim = Sim.create () in
  let fab = Fabric.create sim ~pool_frames:false () in
  let got = ref [] in
  let a = Fabric.attach fab ~name:"a" (fun _ -> ()) in
  let b = Fabric.attach fab ~name:"b" (fun p -> got := p :: !got) in
  Sim.spawn_at sim Time.zero (fun () ->
      for i = 1 to 5 do
        Fabric.send a ~dst:(Fabric.port_id b) ~size_bytes:(100 * i)
          (Packet.Raw "keep");
        Sim.sleep (Time.ms 1)
      done);
  Sim.run sim;
  check_int "all delivered" 5 (List.length !got);
  check_int "nothing pooled" 0 (Fabric.pool_free_count fab);
  (* Un-pooled frames are never recycled: handlers may retain them
     without keep_frame and the contents stay put. *)
  List.iter
    (fun p ->
      check_bool "retained frame intact" true (p.Packet.payload = Packet.Raw "keep"))
    !got

(* --- Fabric: multicast groups --- *)

(* [n] ports joined to a fresh group; returns (fab, group, ports,
   per-port delivery counts, last payload seen per port). *)
let mcast_rig ?(seed = 42) ?loss n =
  let sim = Sim.create ~seed () in
  let fab = Fabric.create sim ?loss_rate:loss () in
  let counts = Array.make n 0 in
  let last = Array.make n None in
  let ports =
    Array.init n (fun i ->
        Fabric.attach fab
          ~name:(Printf.sprintf "m%d" i)
          (fun p ->
            counts.(i) <- counts.(i) + 1;
            last.(i) <- Some p.Packet.payload))
  in
  let g = Fabric.mcast_group fab in
  Array.iter (fun p -> Fabric.mcast_join p ~group:g) ports;
  (sim, fab, g, ports, counts, last)

let test_mcast_fanout_excludes_sender () =
  let sim, fab, g, ports, counts, last = mcast_rig 4 in
  Sim.spawn_at sim Time.zero (fun () ->
      Fabric.send ports.(0) ~dst:g ~size_bytes:1000 (Packet.Raw "carousel"));
  Sim.run sim;
  check_int "sender excluded" 0 counts.(0);
  for i = 1 to 3 do
    check_int (Printf.sprintf "member %d got one copy" i) 1 counts.(i)
  done;
  check_int "one mcast send" 1 (Fabric.mcast_sent fab);
  check_int "three deliveries" 3 (Fabric.mcast_deliveries fab);
  (* Fan-out copies the frame record but shares the payload: every
     member sees the same physical payload value. *)
  (match (last.(1), last.(2)) with
  | Some a, Some b -> check_bool "payload shared" true (a == b)
  | _ -> Alcotest.fail "missing deliveries")

let test_mcast_non_member_not_delivered () =
  let sim, fab, g, ports, counts, _ = mcast_rig 3 in
  let quiet = ref 0 in
  let _outsider = Fabric.attach fab ~name:"outsider" (fun _ -> incr quiet) in
  Sim.spawn_at sim Time.zero (fun () ->
      Fabric.send ports.(0) ~dst:g ~size_bytes:500 (Packet.Raw "x"));
  Sim.run sim;
  check_int "outsider silent" 0 !quiet;
  check_int "members heard" 2 (counts.(1) + counts.(2))

let test_mcast_join_idempotent_leave_removes () =
  let sim, fab, g, ports, counts, _ = mcast_rig 3 in
  (* Double-join must not double-deliver. *)
  Fabric.mcast_join ports.(1) ~group:g;
  check_int "membership stable" 3 (Fabric.mcast_members fab ~group:g);
  Fabric.mcast_leave ports.(2) ~group:g;
  check_int "leave removes" 2 (Fabric.mcast_members fab ~group:g);
  Fabric.mcast_leave ports.(2) ~group:g;
  check_int "leave idempotent" 2 (Fabric.mcast_members fab ~group:g);
  Sim.spawn_at sim Time.zero (fun () ->
      Fabric.send ports.(0) ~dst:g ~size_bytes:500 (Packet.Raw "x"));
  Sim.run sim;
  check_int "joined member: one copy" 1 counts.(1);
  check_int "left member: nothing" 0 counts.(2)

let test_mcast_link_down_member_skipped () =
  let sim, fab, g, ports, counts, _ = mcast_rig 4 in
  Fabric.set_link_up ports.(2) false;
  Sim.spawn_at sim Time.zero (fun () ->
      Fabric.send ports.(0) ~dst:g ~size_bytes:500 (Packet.Raw "x"));
  Sim.run sim;
  check_int "up members delivered" 1 counts.(1);
  check_int "down member skipped" 0 counts.(2);
  check_int "down member counted as link drop" 1 (Fabric.link_drops fab);
  check_int "deliveries exclude the drop" 2 (Fabric.mcast_deliveries fab)

let test_mcast_loss_rolled_per_member () =
  (* With certain loss every copy drops independently; the send still
     counts, the deliveries do not. *)
  let sim, fab, g, ports, counts, _ = mcast_rig ~loss:1.0 4 in
  Sim.spawn_at sim Time.zero (fun () ->
      Fabric.send ports.(0) ~dst:g ~size_bytes:500 (Packet.Raw "x"));
  Sim.run sim;
  Array.iter (fun c -> check_int "all lost" 0 c) counts;
  check_int "send counted" 1 (Fabric.mcast_sent fab);
  check_int "no deliveries" 0 (Fabric.mcast_deliveries fab);
  check_int "three member drops" 3 (Fabric.frames_dropped fab)

let test_mcast_original_frame_recycled () =
  (* The fan-out source frame goes back to the pool once copies are cut;
     receivers release their own copies on return. *)
  let sim, fab, g, ports, _, _ = mcast_rig 3 in
  Sim.spawn_at sim Time.zero (fun () ->
      Fabric.send ports.(0) ~dst:g ~size_bytes:500 (Packet.Raw "x"));
  Sim.run sim;
  (* original + 2 copies, all returned *)
  check_int "pool holds all frames" 3 (Fabric.pool_free_count fab);
  ignore ports

let test_mcast_bad_group_rejected () =
  let sim = Sim.create () in
  let fab = Fabric.create sim () in
  let p = Fabric.attach fab ~name:"p" (fun _ -> ()) in
  check_bool "unallocated group raises" true
    (try
       Fabric.mcast_join p ~group:(-99);
       false
     with Invalid_argument _ -> true);
  check_bool "positive id is not a group" true (not (Fabric.is_mcast 3));
  check_bool "allocated id is a group" true
    (Fabric.is_mcast (Fabric.mcast_group fab))

(* An rx handler runs inside the port's egress step: an exception it
   raises fails the simulation under that port's egress name. *)
let test_fabric_rx_failure_names_egress () =
  let sim = Sim.create () in
  let fab = Fabric.create sim () in
  let a = Fabric.attach fab ~name:"a" (fun _ -> ()) in
  let b = Fabric.attach fab ~name:"b" (fun _ -> failwith "rx exploded") in
  Sim.spawn_at sim Time.zero (fun () ->
      Fabric.send a ~dst:(Fabric.port_id b) ~size_bytes:100 (Packet.Raw "x"));
  match Sim.run sim with
  | () -> Alcotest.fail "expected Process_failure"
  | exception Sim.Process_failure (name, Failure msg) ->
    Alcotest.(check string) "process" "b-egress" name;
    Alcotest.(check string) "cause" "rx exploded" msg

(* The rx contract forbids blocking: a handler that sleeps fails the
   run instead of stalling the port's egress. *)
let test_fabric_blocking_rx_fails () =
  let sim = Sim.create () in
  let fab = Fabric.create sim () in
  let a = Fabric.attach fab ~name:"a" (fun _ -> ()) in
  let b = Fabric.attach fab ~name:"b" (fun _ -> Sim.sleep (Time.ms 1)) in
  Sim.spawn_at sim Time.zero (fun () ->
      Fabric.send a ~dst:(Fabric.port_id b) ~size_bytes:100 (Packet.Raw "x"));
  match Sim.run sim with
  | () -> Alcotest.fail "expected Process_failure"
  | exception Sim.Process_failure (name, _) ->
    Alcotest.(check string) "process" "b-egress" name

(* --- memory --- *)

(* Words a job allocates sending [n] 64-byte frames from [src] to [dst],
   50 us apart, after 100 warm-up frames that give the frame pool, the
   rings and the event heap their size. Each frame is delivered before
   the next leaves (it takes 21 us), so the readings cover whole trips:
   the uplink job, the switch, the egress job and the rx handler. *)
let words_over_trips sim src ~dst ~n =
  let payload = Packet.Raw "frame" in
  Alloc.words_over_steps ~every:(Time.us 50) sim ~warm:100 ~n (fun () ->
      Fabric.send src ~dst ~size_bytes:64 payload)

(* A frame travels in a pooled record on run-to-completion jobs, so
   once the pool has its size a send and its delivery allocate nothing.
   A closure or an option per frame on the path reads at least 2 words
   each. *)
let test_unicast_allocates_nothing () =
  let sim = Sim.create () in
  let fab = Fabric.create sim () in
  let delivered = ref 0 in
  let a = Fabric.attach fab ~name:"a" (fun _ -> ()) in
  let b = Fabric.attach fab ~name:"b" (fun _ -> incr delivered) in
  let words = words_over_trips sim a ~dst:(Fabric.port_id b) ~n:10_000 in
  check_int "every frame delivered" 10_100 !delivered;
  Alcotest.(check (float 0.)) "words over 10,000 frames" 0.0 words

(* The switch gives each of a group's 16 members a pooled copy of the
   record; the payload is shared. *)
let test_mcast_allocates_nothing () =
  let sim = Sim.create () in
  let fab = Fabric.create sim () in
  let group = Fabric.mcast_group fab in
  let delivered = ref 0 in
  let a = Fabric.attach fab ~name:"a" (fun _ -> ()) in
  for i = 1 to 16 do
    let m =
      Fabric.attach fab ~name:(Printf.sprintf "m%d" i) (fun _ ->
          incr delivered)
    in
    Fabric.mcast_join m ~group
  done;
  let words = words_over_trips sim a ~dst:group ~n:10_000 in
  check_int "every copy delivered" (16 * 10_100) !delivered;
  Alcotest.(check (float 0.)) "words over 10,000 frames to 16 members" 0.0 words

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "net"
    [ ( "fabric",
        [ tc "delivery" `Quick test_fabric_delivery;
          tc "serialization time" `Quick test_fabric_serialization_time;
          tc "mtu enforced" `Quick test_fabric_mtu_enforced;
          tc "loss" `Quick test_fabric_loss;
          tc "gilbert bursty loss" `Quick test_fabric_gilbert_bursty_loss;
          tc "link flap" `Quick test_fabric_link_flap;
          tc "nic stall delays delivery" `Quick
            test_fabric_nic_stall_delays_delivery;
          tc "contention shares egress" `Quick test_fabric_contention_shares_egress;
          tc "send_wait admits one per drained frame" `Quick
            test_fabric_send_wait_admits_one_per_frame;
          tc "send validation keeps profiler balanced" `Quick
            test_fabric_send_invalid_keeps_profiler_balanced;
          tc "set_loss_rate resets gilbert state" `Quick
            test_fabric_set_loss_rate_resets_gilbert;
          tc "attach scales to 10k ports" `Quick test_fabric_attach_scales;
          tc "frame pool recycles" `Quick test_fabric_frame_pool_recycles;
          tc "keep_frame prevents aliasing" `Quick
            test_fabric_keep_frame_prevents_aliasing;
          tc "unkept frame is recycled" `Quick
            test_fabric_unkept_frame_is_recycled;
          tc "pooling off allocates fresh" `Quick
            test_fabric_pooling_off_allocates_fresh;
          tc "rx failure names the egress" `Quick
            test_fabric_rx_failure_names_egress;
          tc "blocking rx handler fails" `Quick
            test_fabric_blocking_rx_fails ] );
      ( "fabric-mcast",
        [ tc "fan-out excludes sender" `Quick test_mcast_fanout_excludes_sender;
          tc "non-member not delivered" `Quick
            test_mcast_non_member_not_delivered;
          tc "join idempotent, leave removes" `Quick
            test_mcast_join_idempotent_leave_removes;
          tc "link-down member skipped" `Quick
            test_mcast_link_down_member_skipped;
          tc "loss rolled per member" `Quick test_mcast_loss_rolled_per_member;
          tc "original frame recycled" `Quick
            test_mcast_original_frame_recycled;
          tc "bad group rejected" `Quick test_mcast_bad_group_rejected ] );
      ( "memory",
        [ tc "unicast allocates nothing" `Quick test_unicast_allocates_nothing;
          tc "multicast allocates nothing" `Quick test_mcast_allocates_nothing
        ] );
      ( "nic",
        [ tc "tx" `Quick test_nic_tx;
          tc "rx ring" `Quick test_nic_rx_ring;
          tc "rx overflow drops" `Quick test_nic_rx_overflow_drops;
          tc "rx irq" `Quick test_nic_rx_irq;
          tc "ring lookup" `Quick test_nic_ring_lookup ] );
      ( "ib",
        [ tc "rdma latency" `Quick test_ib_rdma_latency;
          tc "overhead adds to latency" `Quick test_ib_overhead_adds_to_latency;
          tc "bandwidth hides overhead" `Quick test_ib_bandwidth_hides_overhead;
          tc "msg rendezvous" `Quick test_ib_msg_rendezvous;
          tc "bytes counted" `Quick test_ib_bytes_counted ] ) ]
