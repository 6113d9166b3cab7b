module Sim = Bmcast_engine.Sim
module Mmio = Bmcast_hw.Mmio
module Irq = Bmcast_hw.Irq

let ring_size = 256

module Regs = struct
  let tdh = 0x00
  let tdt = 0x08
  let rdh = 0x10
  let rdt = 0x18
  let ie = 0x20
  let tdba = 0x28
  let rdba = 0x30
end

(* A descriptor holds its frame directly, so a frame hop builds no
   [Some]: a TX slot a frame record from the fabric's pool, which the
   device sends as it is, and an RX slot the frame delivered into it.
   An empty slot holds [no_frame]. *)
type Packet.payload += No_payload

let no_frame = { Packet.src = -1; dst = -1; size_bytes = 0; payload = No_payload }

type ring = Tx of Packet.t array | Rx of Packet.t array

type t = {
  sim : Sim.t;
  irq : Irq.t;
  irq_vec : int;
  mutable fabric_port : Fabric.port option;
  mutable fabric_ : Fabric.t option;
  (* descriptor rings in guest memory: the one at
     [ring_base + i * 0x1000] is [rings.(i)] *)
  ring_base : int;
  mutable rings : ring array;
  default_tx : int;
  default_rx : int;
  (* registers *)
  mutable tdba : int;
  mutable rdba : int;
  mutable tdh : int;
  mutable tdt : int;
  mutable rdh : int;
  mutable rdt : int;
  mutable ie : int;
  mutable rx_dropped : int;
}

let port t = Option.get t.fabric_port
let rx_dropped t = t.rx_dropped
let default_tx_ring t = t.default_tx
let default_rx_ring t = t.default_rx

(* Rings are allocated when a driver or mediator attaches, a few per
   NIC, so the array grows by one. *)
let add_ring t r =
  let addr = t.ring_base + (Array.length t.rings * 0x1000) in
  t.rings <- Array.append t.rings [| r |];
  addr

(* The ring at [addr]; [Not_found] if none starts there. *)
let ring t addr =
  let off = addr - t.ring_base in
  if off < 0 || off land 0xFFF <> 0 || off lsr 12 >= Array.length t.rings
  then raise Not_found;
  t.rings.(off lsr 12)

let alloc_tx_ring t = add_ring t (Tx (Array.make ring_size no_frame))
let alloc_rx_ring t = add_ring t (Rx (Array.make ring_size no_frame))

let tx_ring t addr =
  match ring t addr with
  | Tx r -> r
  | Rx _ | (exception Not_found) ->
    invalid_arg (Printf.sprintf "Nic: no TX ring at 0x%x" addr)

let rx_ring t addr =
  match ring t addr with
  | Rx r -> r
  | Tx _ | (exception Not_found) ->
    invalid_arg (Printf.sprintf "Nic: no RX ring at 0x%x" addr)

let check_idx idx =
  if idx < 0 || idx >= ring_size then invalid_arg "Nic: ring index out of range"

let fabric t = Option.get t.fabric_

let set_tx_desc t ~ring ~idx ~dst ~size_bytes payload =
  check_idx idx;
  (tx_ring t ring).(idx) <- Fabric.frame (port t) ~dst ~size_bytes payload

let tx_desc t ~ring ~idx =
  check_idx idx;
  let f = (tx_ring t ring).(idx) in
  if f == no_frame then None
  else Some (f.Packet.dst, f.Packet.size_bytes, f.Packet.payload)

let rx_desc t ~ring ~idx =
  check_idx idx;
  (rx_ring t ring).(idx)

let clear_ring t addr =
  match ring t addr with
  | Tx r | Rx r -> Array.fill r 0 ring_size no_frame
  | exception Not_found ->
    invalid_arg (Printf.sprintf "Nic: no ring at 0x%x" addr)

let put_rx_desc t ~ring ~idx frame =
  check_idx idx;
  (rx_ring t ring).(idx) <- frame

let clear_rx_desc t ~ring ~idx =
  check_idx idx;
  (rx_ring t ring).(idx) <- no_frame

(* Device-side transmit: drain [TDH, TDT) of the ring at TDBA. *)
let kick_tx t =
  let ring = tx_ring t t.tdba in
  while t.tdh <> t.tdt do
    let frame = ring.(t.tdh) in
    if frame == no_frame then invalid_arg "Nic: TX descriptor not populated";
    Fabric.send_frame (port t) frame;
    ring.(t.tdh) <- no_frame;
    t.tdh <- (t.tdh + 1) mod ring_size
  done

let on_rx t frame =
  if t.rdh = t.rdt then t.rx_dropped <- t.rx_dropped + 1
  else begin
    (* The ring retains the frame past this callback; the consumer that
       drains the descriptor releases it (see fabric.mli ownership). *)
    Fabric.keep_frame (fabric t);
    (rx_ring t t.rdba).(t.rdh) <- frame;
    t.rdh <- (t.rdh + 1) mod ring_size;
    if t.ie <> 0 then Irq.raise_irq t.irq ~vec:t.irq_vec
  end

let reg_read t off =
  if off = Regs.tdh then t.tdh
  else if off = Regs.tdt then t.tdt
  else if off = Regs.rdh then t.rdh
  else if off = Regs.rdt then t.rdt
  else if off = Regs.ie then t.ie
  else if off = Regs.tdba then t.tdba
  else if off = Regs.rdba then t.rdba
  else invalid_arg (Printf.sprintf "Nic: read of unknown register 0x%x" off)

let reg_write t off v =
  if off = Regs.tdt then begin
    if v < 0 || v >= ring_size then invalid_arg "Nic: TDT out of range";
    t.tdt <- v;
    kick_tx t
  end
  else if off = Regs.rdt then begin
    if v < 0 || v >= ring_size then invalid_arg "Nic: RDT out of range";
    t.rdt <- v
  end
  else if off = Regs.ie then t.ie <- v
  else if off = Regs.tdba then begin
    ignore (tx_ring t v : Packet.t array);
    t.tdba <- v;
    t.tdh <- 0;
    t.tdt <- 0
  end
  else if off = Regs.rdba then begin
    ignore (rx_ring t v : Packet.t array);
    t.rdba <- v;
    t.rdh <- 0;
    t.rdt <- 0
  end
  else invalid_arg (Printf.sprintf "Nic: write of unknown register 0x%x" off)

let raw t = { Mmio.read = reg_read t; write = reg_write t }

let create sim ~mmio ~base ~fabric ~name ~irq ~irq_vec =
  let t =
    { sim;
      irq;
      irq_vec;
      fabric_port = None;
      fabric_ = None;
      ring_base = 0xA000_0000 + (base land 0xFFFF);
      rings = [||];
      default_tx = 0;
      default_rx = 0;
      tdba = 0;
      rdba = 0;
      tdh = 0;
      tdt = 0;
      rdh = 0;
      rdt = 0;
      ie = 0;
      rx_dropped = 0 }
  in
  let tx = alloc_tx_ring t and rx = alloc_rx_ring t in
  let t = { t with default_tx = tx; default_rx = rx; tdba = tx; rdba = rx } in
  t.fabric_ <- Some fabric;
  t.fabric_port <- Some (Fabric.attach fabric ~name (on_rx t));
  Mmio.map mmio ~base ~size:0x40 (raw t);
  t
