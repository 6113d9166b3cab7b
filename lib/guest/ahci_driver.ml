module Sim = Bmcast_engine.Sim
module Semaphore = Bmcast_engine.Semaphore
module Signal = Bmcast_engine.Signal
module Mmio = Bmcast_hw.Mmio
module Irq = Bmcast_hw.Irq
module Content = Bmcast_storage.Content
module Dma = Bmcast_storage.Dma
module Ahci = Bmcast_storage.Ahci
module Machine = Bmcast_platform.Machine

type t = {
  machine : Machine.t;
  ahci : Ahci.t;
  table : Ahci.cmd_table;  (* slot 0's, rewritten for every command *)
  lock : Semaphore.t;  (* one command in flight (queue depth 1) *)
  mutable completion : Signal.Latch.t option;
}

let reg t off = Mmio.read t.machine.Machine.mmio (Machine.ahci_base + off)
let wreg t off v = Mmio.write t.machine.Machine.mmio (Machine.ahci_base + off) v

let isr t () =
  (* Acknowledge interrupt status; wake the waiting requester if its
     command left the issue register. *)
  let is = reg t Ahci.Regs.px_is in
  if is land 1 <> 0 then begin
    wreg t Ahci.Regs.px_is 1;
    if reg t Ahci.Regs.px_ci land 1 = 0 then
      match t.completion with
      | Some latch ->
        t.completion <- None;
        Signal.Latch.set latch
      | None -> ()
  end

let attach machine =
  let ahci =
    match machine.Machine.controller with
    | Machine.Ahci a -> a
    | Machine.Ide _ -> invalid_arg "Ahci_driver.attach: machine has IDE disk"
  in
  let clb = Ahci.alloc_cmd_list ahci in
  let table_addr =
    Ahci.alloc_cmd_table ahci
      { Ahci.Fis.op = Ahci.Fis.Read; lba = 0; count = 0 }
      []
  in
  Ahci.set_slot ahci ~clb ~slot:0 ~table_addr;
  let t =
    { machine;
      ahci;
      table = Ahci.cmd_table ahci ~addr:table_addr;
      lock = Semaphore.create 1;
      completion = None }
  in
  Irq.register machine.Machine.irq ~vec:Machine.disk_irq_vec (isr t);
  wreg t Ahci.Regs.px_clb clb;
  wreg t Ahci.Regs.px_ie 1;
  wreg t Ahci.Regs.px_cmd 1;
  t

let submit t fis buf =
  Semaphore.with_permit t.lock (fun () ->
      t.table.Ahci.fis <- fis;
      t.table.Ahci.prdt <-
        [ { Ahci.buf_addr = buf.Dma.addr; sectors = Array.length buf.Dma.data } ];
      let latch = Signal.Latch.create () in
      t.completion <- Some latch;
      wreg t Ahci.Regs.px_ci 1;
      Signal.Latch.wait latch)

let read t ~lba ~count =
  let buf = Dma.alloc t.machine.Machine.dma ~sectors:count in
  submit t { Ahci.Fis.op = Ahci.Fis.Read; lba; count } buf;
  (* Once freed, the buffer is unreachable: its array is the result. *)
  Dma.free t.machine.Machine.dma buf;
  buf.Dma.data

let write t ~lba ~count data =
  if Array.length data <> count then
    invalid_arg "Ahci_driver.write: data length mismatch";
  let buf = Dma.alloc t.machine.Machine.dma ~sectors:count in
  Dma.write buf ~off:0 data;
  submit t { Ahci.Fis.op = Ahci.Fis.Write; lba; count } buf;
  Dma.free t.machine.Machine.dma buf
