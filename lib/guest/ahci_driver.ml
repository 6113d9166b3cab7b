module Sim = Bmcast_engine.Sim
module Semaphore = Bmcast_engine.Semaphore
module Mmio = Bmcast_hw.Mmio
module Irq = Bmcast_hw.Irq
module Dma = Bmcast_storage.Dma
module Ahci = Bmcast_storage.Ahci
module Machine = Bmcast_platform.Machine

(* Everything a command touches is built at attach and rewritten in
   place, so a command allocates only the continuations of the
   processes it suspends. *)
type t = {
  machine : Machine.t;
  table : Ahci.cmd_table;  (* slot 0's, rewritten for every command *)
  prd : Dma.prd;  (* the table's one entry: [buf], [sectors] per command *)
  prdt : Dma.prd list;  (* [[prd]], stored into the table per command *)
  buf : Dma.buf;  (* bound to the caller's array for each command *)
  lock : Semaphore.t;  (* one command in flight (queue depth 1) *)
  in_flight : bool ref;  (* issued, not completed; [completed]'s predicate *)
  completed : Sim.wait_queue;  (* the requester, until [in_flight] clears *)
}

let reg t off = Mmio.read t.machine.Machine.mmio (Machine.ahci_base + off)
let wreg t off v = Mmio.write t.machine.Machine.mmio (Machine.ahci_base + off) v

let isr t () =
  (* Acknowledge interrupt status; wake the waiting requester if its
     command left the issue register. *)
  let is = reg t Ahci.Regs.px_is in
  if is land 1 <> 0 then begin
    wreg t Ahci.Regs.px_is 1;
    if reg t Ahci.Regs.px_ci land 1 = 0 && !(t.in_flight) then begin
      t.in_flight := false;
      Sim.wake_all t.completed
    end
  end

let attach machine =
  let ahci =
    match machine.Machine.controller with
    | Machine.Ahci a -> a
    | Machine.Ide _ -> invalid_arg "Ahci_driver.attach: machine has IDE disk"
  in
  let clb = Ahci.alloc_cmd_list ahci in
  let table_addr = Ahci.alloc_cmd_table ahci ~op:Ahci.Read ~lba:0 ~count:0 [] in
  Ahci.set_slot ahci ~clb ~slot:0 ~table_addr;
  let buf = Dma.bindable machine.Machine.dma in
  let prd = { Dma.buf_addr = buf.Dma.addr; sectors = 0 } in
  let in_flight = ref false in
  let t =
    { machine;
      table = Ahci.cmd_table ahci ~addr:table_addr;
      prd;
      prdt = [ prd ];
      buf;
      lock = Semaphore.create 1;
      in_flight;
      completed =
        Sim.wait_queue machine.Machine.sim (fun () -> not !in_flight) }
  in
  Irq.register machine.Machine.irq ~vec:Machine.disk_irq_vec (isr t);
  wreg t Ahci.Regs.px_clb clb;
  wreg t Ahci.Regs.px_ie 1;
  wreg t Ahci.Regs.px_cmd 1;
  t

let check what ~count data =
  if count <= 0 || count > Array.length data then
    invalid_arg
      (Printf.sprintf "Ahci_driver.%s: count %d outside 1..%d (the buffer)"
         what count (Array.length data))

let issue t op ~lba ~count data =
  Dma.bind t.buf data ~pos:0 ~sectors:count;
  let ct = t.table in
  ct.Ahci.op <- op;
  ct.Ahci.lba <- lba;
  ct.Ahci.count <- count;
  t.prd.Dma.sectors <- count;
  ct.Ahci.prdt <- t.prdt;
  t.in_flight := true;
  wreg t Ahci.Regs.px_ci 1;
  Sim.wait t.completed

(* The permit and the binding are given back on an exception too. *)
let submit t op ~lba ~count data =
  Semaphore.acquire t.lock;
  match issue t op ~lba ~count data with
  | () ->
    Dma.unbind t.buf;
    Semaphore.release t.lock
  | exception e ->
    t.in_flight := false;
    Dma.unbind t.buf;
    Semaphore.release t.lock;
    raise e

let read_into t ~lba ~count dst =
  check "read_into" ~count dst;
  submit t Ahci.Read ~lba ~count dst

let write t ~lba ~count data =
  check "write" ~count data;
  submit t Ahci.Write ~lba ~count data
