module Sim = Bmcast_engine.Sim
module Semaphore = Bmcast_engine.Semaphore
module Pio = Bmcast_hw.Pio
module Irq = Bmcast_hw.Irq
module Dma = Bmcast_storage.Dma
module Ide = Bmcast_storage.Ide
module Machine = Bmcast_platform.Machine

(* Built at attach and rewritten in place, as in [Ahci_driver]. *)
type t = {
  machine : Machine.t;
  ide : Ide.t;
  prdt_addr : int;  (* the PRD table, rewritten for every command *)
  prd : Dma.prd;  (* its one entry: [buf], [sectors] per command *)
  prdt : Dma.prd list;  (* [[prd]], stored into the table per command *)
  buf : Dma.buf;  (* bound to a window of the caller's array per command *)
  lock : Semaphore.t;
  in_flight : bool ref;  (* issued, not completed; [completed]'s predicate *)
  completed : Sim.wait_queue;  (* the requester, until [in_flight] clears *)
}

let inp t port = Pio.inp t.machine.Machine.pio port
let outp t port v = Pio.outp t.machine.Machine.pio port v

let isr t () =
  (* Read status (required to de-assert INTRQ), ack the bus-master IRQ
     bit, wake the requester. *)
  let status = inp t (Machine.ide_cmd_base + Ide.Regs.command) in
  if status land Ide.status_bsy = 0 then begin
    outp t (Machine.ide_bm_base + Ide.Bm.status) 0x04;
    if !(t.in_flight) then begin
      t.in_flight := false;
      Sim.wake_all t.completed
    end
  end

let attach machine =
  let ide =
    match machine.Machine.controller with
    | Machine.Ide i -> i
    | Machine.Ahci _ -> invalid_arg "Ide_driver.attach: machine has AHCI disk"
  in
  let buf = Dma.bindable machine.Machine.dma in
  let prd = { Dma.buf_addr = buf.Dma.addr; sectors = 0 } in
  let in_flight = ref false in
  let t =
    { machine;
      ide;
      prdt_addr = Ide.register_prdt ide [];
      prd;
      prdt = [ prd ];
      buf;
      lock = Semaphore.create 1;
      in_flight;
      completed =
        Sim.wait_queue machine.Machine.sim (fun () -> not !in_flight) }
  in
  Irq.register machine.Machine.irq ~vec:Machine.disk_irq_vec (isr t);
  t

(* One command moves [data.(pos .. pos + count - 1)]; the task file
   carries [count] in 8 bits (0 means 256). *)
let one_command t op ~lba ~count data ~pos =
  t.in_flight := true;
  Dma.bind t.buf data ~pos ~sectors:count;
  t.prd.Dma.sectors <- count;
  Ide.set_prdt t.ide ~addr:t.prdt_addr t.prdt;
  outp t (Machine.ide_bm_base + Ide.Bm.prdt) t.prdt_addr;
  outp t (Machine.ide_cmd_base + Ide.Regs.seccount) (count land 0xFF);
  outp t (Machine.ide_cmd_base + Ide.Regs.lba0) (lba land 0xFF);
  outp t (Machine.ide_cmd_base + Ide.Regs.lba1) ((lba lsr 8) land 0xFF);
  outp t (Machine.ide_cmd_base + Ide.Regs.lba2) ((lba lsr 16) land 0xFF);
  outp t (Machine.ide_cmd_base + Ide.Regs.device)
    (0xE0 lor ((lba lsr 24) land 0x0F));
  outp t
    (Machine.ide_cmd_base + Ide.Regs.command)
    (match op with `Read -> Ide.cmd_read_dma | `Write -> Ide.cmd_write_dma);
  outp t (Machine.ide_bm_base + Ide.Bm.command)
    (0x01 lor match op with `Read -> 0x08 | `Write -> 0x00);
  Sim.wait t.completed

(* The task file's 8-bit sector count caps a command at 256 sectors. *)
let max_per_command = 256

(* Requests larger than one command run as several, each on the next
   window of [data]. *)
let rec commands t op ~lba ~count data ~off =
  if off < count then begin
    let n = min max_per_command (count - off) in
    one_command t op ~lba:(lba + off) ~count:n data ~pos:off;
    commands t op ~lba ~count data ~off:(off + n)
  end

let check what ~count data =
  if count <= 0 || count > Array.length data then
    invalid_arg
      (Printf.sprintf "Ide_driver.%s: count %d outside 1..%d (the buffer)"
         what count (Array.length data))

(* The permit and the binding are given back on an exception too. *)
let submit t op ~lba ~count data =
  Semaphore.acquire t.lock;
  match commands t op ~lba ~count data ~off:0 with
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
  submit t `Read ~lba ~count dst

let write t ~lba ~count data =
  check "write" ~count data;
  submit t `Write ~lba ~count data
