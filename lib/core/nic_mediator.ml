module Sim = Bmcast_engine.Sim
module Time = Bmcast_engine.Time
module Mmio = Bmcast_hw.Mmio
module Irq = Bmcast_hw.Irq
module Nic = Bmcast_net.Nic
module Fabric = Bmcast_net.Fabric
module Packet = Bmcast_net.Packet
module Machine = Bmcast_platform.Machine

type t = {
  machine : Machine.t;
  nic : Nic.t;
  raw : Mmio.handler;
  poll_interval : Time.span;
  (* shadow rings the device actually uses *)
  shadow_tx : int;
  shadow_rx : int;
  mutable shadow_tx_tail : int;
  mutable shadow_rx_head : int;  (* next shadow RX slot to consume *)
  mutable shadow_rdt : int;
  (* guest view (emulated registers) *)
  mutable g_tx_ring : int;  (* guest's TDBA value *)
  mutable g_rx_ring : int;
  mutable g_tdh : int;
  mutable g_tdt : int;
  mutable g_rdh : int;
  mutable g_rdt : int;
  mutable g_ie : int;
  (* VMM inbound filter *)
  mutable vmm_rx : Packet.t -> bool;
  mutable devirtualized : bool;
  mutable running : bool;
  (* stats *)
  mutable guest_tx_frames : int;
  mutable guest_rx_relayed : int;
  mutable guest_rx_dropped : int;
  mutable vmm_tx_frames : int;
}

let guest_tx_frames t = t.guest_tx_frames
let guest_rx_relayed t = t.guest_rx_relayed
let guest_rx_dropped t = t.guest_rx_dropped
let vmm_tx_frames t = t.vmm_tx_frames

let set_vmm_rx t f = t.vmm_rx <- f

(* Push one descriptor into the shadow TX ring and kick the device. *)
let shadow_transmit t ~dst ~size_bytes payload =
  Nic.set_tx_desc t.nic ~ring:t.shadow_tx ~idx:t.shadow_tx_tail ~dst
    ~size_bytes payload;
  t.shadow_tx_tail <- (t.shadow_tx_tail + 1) mod Nic.ring_size;
  t.raw.Mmio.write Nic.Regs.tdt t.shadow_tx_tail

let vmm_send t ~dst ~size_bytes payload =
  t.vmm_tx_frames <- t.vmm_tx_frames + 1;
  shadow_transmit t ~dst ~size_bytes payload

(* Guest wrote TDT: copy its fresh descriptors from its own ring into
   the shadow ring, interleaved after anything already there. *)
let on_guest_tdt t v =
  while t.g_tdt <> v do
    (match Nic.tx_desc t.nic ~ring:t.g_tx_ring ~idx:t.g_tdt with
    | Some (dst, size_bytes, payload) ->
      t.guest_tx_frames <- t.guest_tx_frames + 1;
      shadow_transmit t ~dst ~size_bytes payload
    | None -> invalid_arg "Nic_mediator: guest TX descriptor not populated");
    t.g_tdt <- (t.g_tdt + 1) mod Nic.ring_size
  done;
  (* The device drains synchronously; the guest's view completes. *)
  t.g_tdh <- v

(* Relay one inbound frame into the guest's RX ring. *)
let relay_to_guest t frame =
  let next = (t.g_rdh + 1) mod Nic.ring_size in
  if t.g_rdh = t.g_rdt then
    t.guest_rx_dropped <- t.guest_rx_dropped + 1
  else begin
    Nic.put_rx_desc t.nic ~ring:t.g_rx_ring ~idx:t.g_rdh frame;
    t.g_rdh <- next;
    t.guest_rx_relayed <- t.guest_rx_relayed + 1;
    if t.g_ie <> 0 then
      Irq.raise_irq t.machine.Machine.irq ~vec:Machine.prod_nic_irq_vec
  end

let rec poll_loop t backoff =
  if t.running then begin
    let rdh = t.raw.Mmio.read Nic.Regs.rdh in
    let saw = t.shadow_rx_head <> rdh in
    while t.shadow_rx_head <> rdh do
      (let frame = Nic.rx_desc t.nic ~ring:t.shadow_rx ~idx:t.shadow_rx_head in
       if frame != Nic.no_frame then begin
         Nic.clear_rx_desc t.nic ~ring:t.shadow_rx ~idx:t.shadow_rx_head;
         if t.vmm_rx frame then
           (* Consumed by the VMM here and now: recycle the record. A
              relayed frame instead stays live in the guest's RX ring. *)
           Fabric.release_frame (Nic.fabric t.nic) frame
         else relay_to_guest t frame
       end);
      t.shadow_rx_head <- (t.shadow_rx_head + 1) mod Nic.ring_size;
      t.shadow_rdt <- (t.shadow_rdt + 1) mod Nic.ring_size;
      t.raw.Mmio.write Nic.Regs.rdt t.shadow_rdt
    done;
    let backoff = if saw then 1 else min 64 (backoff * 2) in
    Sim.sleep (t.poll_interval * backoff);
    poll_loop t backoff
  end

(* The interposer: virtualize head/tail/enable; ring bases are recorded
   but never forwarded (the device keeps pointing at the shadows). *)
let on_read t ~next off =
  if off = Nic.Regs.tdh then t.g_tdh
  else if off = Nic.Regs.tdt then t.g_tdt
  else if off = Nic.Regs.rdh then t.g_rdh
  else if off = Nic.Regs.rdt then t.g_rdt
  else if off = Nic.Regs.ie then t.g_ie
  else if off = Nic.Regs.tdba then t.g_tx_ring
  else if off = Nic.Regs.rdba then t.g_rx_ring
  else next off

let on_write t ~next off vi =
  ignore next;
  if off = Nic.Regs.tdt then on_guest_tdt t vi
  else if off = Nic.Regs.rdt then t.g_rdt <- vi
  else if off = Nic.Regs.ie then t.g_ie <- vi
  else if off = Nic.Regs.tdba then begin
    t.g_tx_ring <- vi;
    t.g_tdh <- 0;
    t.g_tdt <- 0
  end
  else if off = Nic.Regs.rdba then begin
    t.g_rx_ring <- vi;
    t.g_rdh <- 0;
    t.g_rdt <- 0
  end
  else ()

let attach machine ~poll_interval =
  let nic = machine.Machine.prod_nic in
  let raw = Nic.raw nic in
  let shadow_tx = Nic.alloc_tx_ring nic in
  let shadow_rx = Nic.alloc_rx_ring nic in
  let t =
    { machine;
      nic;
      raw;
      poll_interval;
      shadow_tx;
      shadow_rx;
      shadow_tx_tail = 0;
      shadow_rx_head = 0;
      shadow_rdt = Nic.ring_size - 1;
      g_tx_ring = Nic.default_tx_ring nic;
      g_rx_ring = Nic.default_rx_ring nic;
      g_tdh = 0;
      g_tdt = 0;
      g_rdh = 0;
      g_rdt = 0;
      g_ie = 0;
      vmm_rx = (fun _ -> false);
      devirtualized = false;
      running = true;
      guest_tx_frames = 0;
      guest_rx_relayed = 0;
      guest_rx_dropped = 0;
      vmm_tx_frames = 0 }
  in
  (* Retarget the device at the shadows, keep its interrupts off (the
     mediator polls), publish all shadow RX buffers. *)
  raw.Mmio.write Nic.Regs.ie 0;
  raw.Mmio.write Nic.Regs.tdba shadow_tx;
  raw.Mmio.write Nic.Regs.rdba shadow_rx;
  raw.Mmio.write Nic.Regs.rdt t.shadow_rdt;
  Mmio.interpose machine.Machine.mmio ~base:Machine.prod_nic_base
    { Mmio.on_read = (fun ~next off -> on_read t ~next off);
      on_write = (fun ~next off v -> on_write t ~next off v) };
  Sim.spawn_at machine.Machine.sim ~name:"nic-mediator-poll"
    (Sim.now machine.Machine.sim) (fun () -> poll_loop t 1);
  t

let devirtualize t =
  (* Wait for the guest's TX stream to go quiet and the shadow RX ring
     to drain. *)
  while
    t.g_tdh <> t.g_tdt
    || t.shadow_rx_head <> t.raw.Mmio.read Nic.Regs.rdh
  do
    Sim.sleep t.poll_interval
  done;
  t.running <- false;
  (* Hand the hardware back: device uses the guest's rings directly.
     Base writes reset head/tail on both sides, like a device reset; the
     guest driver reinitializes its indices the same way. *)
  t.raw.Mmio.write Nic.Regs.tdba t.g_tx_ring;
  t.raw.Mmio.write Nic.Regs.rdba t.g_rx_ring;
  t.raw.Mmio.write Nic.Regs.ie t.g_ie;
  Mmio.remove_interposer t.machine.Machine.mmio ~base:Machine.prod_nic_base;
  t.devirtualized <- true
