module Sim = Bmcast_engine.Sim
module Mmio = Bmcast_hw.Mmio
module Nic = Bmcast_net.Nic
module Fabric = Bmcast_net.Fabric
module Machine = Bmcast_platform.Machine

type t = {
  machine : Machine.t;
  base : int;
  nic : Nic.t;
  tx_ring : int;
  rx_ring : int;
  poll_interval : Bmcast_engine.Time.span;
  on_frame : Bmcast_net.Packet.t -> unit;
  mutable tx_idx : int;
  mutable rx_idx : int;  (* next descriptor to consume *)
  mutable rdt : int;
  mutable running : bool;
  mutable backoff : int;
}

let reg t off = Mmio.read t.machine.Machine.mmio (t.base + off)
let wreg t off v = Mmio.write t.machine.Machine.mmio (t.base + off) v

(* When the ring stays empty the poll interval backs off exponentially
   (up to 64x) and snaps back on traffic — the paper's "polling
   intervals are estimated from recent round trip times" (§4.1), which
   keeps idle deployment phases cheap. *)
let max_backoff = 64

(* Take the frame at [rx_idx] out of the ring, pass it to [deliver] and
   hand the record back to the fabric pool, then move past the
   descriptor. [deliver] consumes synchronously (reassembly copies what
   it needs). *)
let consume t deliver =
  let frame = Nic.rx_desc t.nic ~ring:t.rx_ring ~idx:t.rx_idx in
  if frame != Nic.no_frame then begin
    Nic.clear_rx_desc t.nic ~ring:t.rx_ring ~idx:t.rx_idx;
    deliver frame;
    Fabric.release_frame (Nic.fabric t.nic) frame
  end;
  t.rx_idx <- (t.rx_idx + 1) mod Nic.ring_size

(* One poll: drain the RX ring, then re-queue [job] one (backed-off)
   interval later. *)
let poll t job =
  if t.running then begin
    let rdh = reg t Nic.Regs.rdh in
    let saw_traffic = t.rx_idx <> rdh in
    while t.rx_idx <> rdh do
      consume t t.on_frame;
      (* Recycle the buffer: advance RDT to keep the ring stocked. *)
      t.rdt <- (t.rdt + 1) mod Nic.ring_size;
      wreg t Nic.Regs.rdt t.rdt
    done;
    t.backoff <- (if saw_traffic then 1 else min max_backoff (t.backoff * 2));
    Sim.sleep_job job (t.poll_interval * t.backoff)
  end

let attach machine ?(which = `Mgmt) ~poll_interval ~on_frame () =
  let nic =
    match which with
    | `Mgmt -> machine.Machine.mgmt_nic
    | `Prod -> machine.Machine.prod_nic
  in
  let t =
    { machine;
      base =
        (match which with
        | `Mgmt -> Machine.mgmt_nic_base
        | `Prod -> Machine.prod_nic_base);
      nic;
      (* The NIC's own rings, emptied below: attaching is a device
         (re)initialization, so we never inherit a previous owner's ring
         state, and a resumed VMM that attaches again allocates none. *)
      tx_ring = Nic.default_tx_ring nic;
      rx_ring = Nic.default_rx_ring nic;
      poll_interval;
      on_frame;
      tx_idx = 0;
      rx_idx = 0;
      rdt = Nic.ring_size - 1;
      running = true;
      backoff = 1 }
  in
  (* Program our rings (resets head/tail), polling mode: interrupts
     off, publish all but one RX buffer. *)
  Nic.clear_ring nic t.tx_ring;
  Nic.clear_ring nic t.rx_ring;
  wreg t Nic.Regs.tdba t.tx_ring;
  wreg t Nic.Regs.rdba t.rx_ring;
  wreg t Nic.Regs.ie 0;
  wreg t Nic.Regs.rdt t.rdt;
  let rec job =
    lazy (Sim.job machine.Machine.sim ~name:"vmm-netdrv-poll" (fun () ->
        poll t (Lazy.force job)))
  in
  Sim.start_job (Lazy.force job);
  t

let send t ~dst ~size_bytes payload =
  Nic.set_tx_desc t.nic ~ring:t.tx_ring ~idx:t.tx_idx ~dst ~size_bytes payload;
  t.tx_idx <- (t.tx_idx + 1) mod Nic.ring_size;
  wreg t Nic.Regs.tdt t.tx_idx

(* A stopped driver keeps no frame alive. It publishes no more RX
   buffers (RDT := RDH), so the NIC drops frames that still arrive (late
   AoE answers, carousel frames), and hands the frames already in the
   ring back to the fabric pool. Their payloads go to the GC, never to
   the scratch pool: multicast payloads are shared. *)
let stop t =
  if t.running then begin
    t.running <- false;
    let rdh = reg t Nic.Regs.rdh in
    t.rdt <- rdh;
    wreg t Nic.Regs.rdt rdh;
    while t.rx_idx <> rdh do
      consume t ignore
    done
  end
