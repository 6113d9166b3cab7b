module Sim = Bmcast_engine.Sim
module Semaphore = Bmcast_engine.Semaphore
module Signal = Bmcast_engine.Signal
module Pio = Bmcast_hw.Pio
module Irq = Bmcast_hw.Irq
module Content = Bmcast_storage.Content
module Dma = Bmcast_storage.Dma
module Ide = Bmcast_storage.Ide
module Machine = Bmcast_platform.Machine

type t = {
  machine : Machine.t;
  ide : Ide.t;
  prdt_addr : int;  (* the PRD table, rewritten for every command *)
  lock : Semaphore.t;
  mutable completion : Signal.Latch.t option;
}

let inp t port = Pio.inp t.machine.Machine.pio port
let outp t port v = Pio.outp t.machine.Machine.pio port v

let isr t () =
  (* Read status (required to de-assert INTRQ), ack the bus-master IRQ
     bit, wake the requester. *)
  let status = inp t (Machine.ide_cmd_base + Ide.Regs.command) in
  if status land Ide.status_bsy = 0 then begin
    outp t (Machine.ide_bm_base + Ide.Bm.status) 0x04;
    match t.completion with
    | Some latch ->
      t.completion <- None;
      Signal.Latch.set latch
    | None -> ()
  end

let attach machine =
  let ide =
    match machine.Machine.controller with
    | Machine.Ide i -> i
    | Machine.Ahci _ -> invalid_arg "Ide_driver.attach: machine has AHCI disk"
  in
  let t =
    { machine;
      ide;
      prdt_addr = Ide.register_prdt ide [];
      lock = Semaphore.create 1;
      completion = None }
  in
  Irq.register machine.Machine.irq ~vec:Machine.disk_irq_vec (isr t);
  t

let one_command t op ~lba ~count buf =
  let latch = Signal.Latch.create () in
  t.completion <- Some latch;
  Ide.set_prdt t.ide ~addr:t.prdt_addr
    [ { Ide.buf_addr = buf.Dma.addr; sectors = Array.length buf.Dma.data } ];
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
  Signal.Latch.wait latch

(* The task file carries an 8-bit sector count (0 means 256). *)
let max_per_command = 256

let read t ~lba ~count =
  let dma = t.machine.Machine.dma in
  Semaphore.with_permit t.lock (fun () ->
      if count > 0 && count <= max_per_command then begin
        let buf = Dma.alloc dma ~sectors:count in
        one_command t `Read ~lba ~count:(count land 0xFF) buf;
        (* Once freed, the buffer is unreachable: its array is the
           result, as in [Ahci_driver.read]. *)
        Dma.free dma buf;
        buf.Dma.data
      end
      else begin
        let out = Content.zeroes ~count in
        let rec go off =
          if off < count then begin
            let n = min max_per_command (count - off) in
            let buf = Dma.alloc dma ~sectors:n in
            one_command t `Read ~lba:(lba + off) ~count:(n land 0xFF) buf;
            Content.blit buf.Dma.data 0 out off n;
            Dma.free dma buf;
            go (off + n)
          end
        in
        go 0;
        out
      end)

let write t ~lba ~count data =
  if Array.length data <> count then
    invalid_arg "Ide_driver.write: data length mismatch";
  let dma = t.machine.Machine.dma in
  Semaphore.with_permit t.lock (fun () ->
      let rec go off =
        if off < count then begin
          let n = min max_per_command (count - off) in
          let buf = Dma.alloc dma ~sectors:n in
          Dma.blit_to buf ~off:0 data ~src_off:off ~count:n;
          one_command t `Write ~lba:(lba + off) ~count:(n land 0xFF) buf;
          Dma.free dma buf;
          go (off + n)
        end
      in
      go 0)
