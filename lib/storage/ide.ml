module Sim = Bmcast_engine.Sim
module Time = Bmcast_engine.Time
module Pio = Bmcast_hw.Pio
module Irq = Bmcast_hw.Irq

module Regs = struct
  let data = 0
  let features = 1
  let seccount = 2
  let lba0 = 3
  let lba1 = 4
  let lba2 = 5
  let device = 6
  let command = 7
end

let cmd_read_dma = 0xC8
let cmd_write_dma = 0xCA
let cmd_flush = 0xE7

let status_bsy = 0x80
let status_drdy = 0x40

module Bm = struct
  let command = 0
  let status = 2
  let prdt = 4
end

let ctrl_nien = 0x02

type prd = Dma.prd = { buf_addr : int; mutable sectors : int }

(* Per-command controller overhead; IDE has higher per-command cost than
   AHCI (PIO register programming, legacy protocol). *)
let command_overhead = Time.us 35

type t = {
  sim : Sim.t;
  dma : Dma.t;
  disk : Disk.t;
  irq : Irq.t;
  irq_vec : int;
  (* task file *)
  mutable seccount : int;
  mutable lba0 : int;
  mutable lba1 : int;
  mutable lba2 : int;
  mutable device : int;
  mutable status : int;
  (* bus master *)
  mutable bm_cmd : int;
  mutable bm_status : int;
  mutable bm_prdt : int;
  (* control *)
  mutable ctrl : int;
  (* PRD tables in guest memory: the one at [prdt_base + i * 0x100] is
     [prdts.(i)] *)
  mutable prdts : prd list array;
  (* pending command armed by a command-register write, executed when the
     bus master is started; [no_command] when none *)
  mutable armed : int;
  mutable dma_cmd : int;  (* the command [dma_run] executes *)
  (* the device's command processes, built once at create: a DMA
     command started by the bus master and FLUSH CACHE *)
  mutable dma_run : Sim.process;
  mutable flush_run : Sim.process;
  mutable commands_processed : int;
}

let no_command = -1

let commands_processed t = t.commands_processed

let prdt_base = 0x9000_0000

(* Tables are registered when a driver or mediator attaches, a few per
   controller, so the array grows by one. *)
let register_prdt t prds =
  let addr = prdt_base + (Array.length t.prdts * 0x100) in
  t.prdts <- Array.append t.prdts [| prds |];
  addr

let prdt_index t addr =
  let off = addr - prdt_base in
  if off < 0 || off land 0xFF <> 0 || off lsr 8 >= Array.length t.prdts then
    invalid_arg (Printf.sprintf "Ide: no PRD table at 0x%x" addr);
  off lsr 8

let prdt t ~addr = t.prdts.(prdt_index t addr)
let set_prdt t ~addr prds = t.prdts.(prdt_index t addr) <- prds

let lba_of_taskfile t =
  (* 28-bit LBA: low nibble of the device register holds bits 24-27. *)
  t.lba0 lor (t.lba1 lsl 8) lor (t.lba2 lsl 16) lor ((t.device land 0x0F) lsl 24)

let count_of_taskfile t = if t.seccount = 0 then 256 else t.seccount

let execute t cmd =
  t.status <- status_bsy;
  t.bm_status <- t.bm_status lor 0x01;
  Sim.sleep command_overhead;
  let lba = lba_of_taskfile t and count = count_of_taskfile t in
  (* Sectors are staged through a pooled scratch array, as in
     [Ahci.execute]: both directions copy, so the array is dead again
     by the end of the command. *)
  (if cmd = cmd_read_dma then begin
     let data = Content.Scratch.alloc count in
     Disk.read_into t.disk ~lba ~count data;
     Dma.scatter t.dma (prdt t ~addr:t.bm_prdt) data ~count;
     Content.Scratch.release data
   end
   else if cmd = cmd_write_dma then begin
     let prds = prdt t ~addr:t.bm_prdt in
     let data = Content.Scratch.alloc count in
     Dma.gather t.dma prds data ~count;
     Disk.write t.disk ~lba ~count data;
     Content.Scratch.release data
   end
   else if cmd = cmd_flush then Sim.sleep (Time.us 500)
   else invalid_arg (Printf.sprintf "Ide: unsupported command 0x%x" cmd));
  t.commands_processed <- t.commands_processed + 1;
  t.status <- status_drdy;
  t.bm_cmd <- t.bm_cmd land lnot 0x01;
  t.bm_status <- (t.bm_status land lnot 0x01) lor 0x04;
  if t.ctrl land ctrl_nien = 0 then begin
    Irq.raise_irq t.irq ~vec:t.irq_vec
  end

let start_bus_master t =
  if t.armed = no_command then
    invalid_arg "Ide: bus master started with no command armed";
  t.dma_cmd <- t.armed;
  t.armed <- no_command;
  (* BSY asserts the moment DMA starts — before any simulated time
     passes — so no other agent can observe an idle device and clobber
     the task file (or [dma_cmd] before [dma_run] reads it). *)
  t.status <- status_bsy;
  t.bm_status <- t.bm_status lor 0x01;
  Sim.start_at t.dma_run (Sim.now t.sim)

(* --- task file handlers --- *)

let cmd_inp t off =
  if off = Regs.command then t.status
  else if off = Regs.seccount then t.seccount
  else if off = Regs.lba0 then t.lba0
  else if off = Regs.lba1 then t.lba1
  else if off = Regs.lba2 then t.lba2
  else if off = Regs.device then t.device
  else if off = Regs.features || off = Regs.data then 0
  else invalid_arg (Printf.sprintf "Ide: read of unknown task-file port %d" off)

let cmd_outp t off v =
  if off = Regs.seccount then t.seccount <- v land 0xFF
  else if off = Regs.lba0 then t.lba0 <- v land 0xFF
  else if off = Regs.lba1 then t.lba1 <- v land 0xFF
  else if off = Regs.lba2 then t.lba2 <- v land 0xFF
  else if off = Regs.device then t.device <- v land 0xFF
  else if off = Regs.features || off = Regs.data then ()
  else if off = Regs.command then begin
    if t.status land status_bsy <> 0 then
      invalid_arg "Ide: command written while busy";
    if v = cmd_flush then begin
      (* Non-DMA command: executes immediately (BSY asserts now). *)
      t.status <- status_bsy;
      Sim.start_at t.flush_run (Sim.now t.sim)
    end
    else t.armed <- v
  end
  else invalid_arg (Printf.sprintf "Ide: write of unknown task-file port %d" off)

(* --- bus master handlers --- *)

let bm_inp t off =
  if off = Bm.command then t.bm_cmd
  else if off = Bm.status then t.bm_status
  else if off = Bm.prdt then t.bm_prdt
  else invalid_arg (Printf.sprintf "Ide: read of unknown bus-master port %d" off)

let bm_outp t off v =
  if off = Bm.command then begin
    let starting = v land 0x01 <> 0 && t.bm_cmd land 0x01 = 0 in
    t.bm_cmd <- v;
    if starting then start_bus_master t
  end
  else if off = Bm.status then
    (* RW1C on the IRQ bit. *)
    t.bm_status <- t.bm_status land lnot (v land 0x04)
  else if off = Bm.prdt then t.bm_prdt <- v
  else invalid_arg (Printf.sprintf "Ide: write of unknown bus-master port %d" off)

(* --- control handlers --- *)

let ctrl_inp t off =
  if off = 0 then t.status  (* alternate status *)
  else invalid_arg "Ide: unknown control port"

let ctrl_outp t off v =
  if off = 0 then t.ctrl <- v
  else invalid_arg "Ide: unknown control port"

let raw_cmd t = { Pio.inp = cmd_inp t; outp = cmd_outp t }
let raw_bm t = { Pio.inp = bm_inp t; outp = bm_outp t }
let raw_ctrl t = { Pio.inp = ctrl_inp t; outp = ctrl_outp t }

let create sim ~pio ~cmd_base ~bm_base ~ctrl_base ~dma ~disk ~irq ~irq_vec =
  (* A process's body needs [t]: both are set right below. *)
  let unset = Sim.process sim ~name:"ide" ignore in
  let t =
    { sim;
      dma;
      disk;
      irq;
      irq_vec;
      seccount = 0;
      lba0 = 0;
      lba1 = 0;
      lba2 = 0;
      device = 0;
      status = status_drdy;
      bm_cmd = 0;
      bm_status = 0;
      bm_prdt = 0;
      ctrl = 0;
      prdts = [||];
      armed = no_command;
      dma_cmd = no_command;
      dma_run = unset;
      flush_run = unset;
      commands_processed = 0 }
  in
  t.dma_run <-
    Sim.process sim ~name:"ide-execute" (fun () -> execute t t.dma_cmd);
  t.flush_run <-
    Sim.process sim ~name:"ide-flush" (fun () -> execute t cmd_flush);
  Pio.map pio ~base:cmd_base ~count:8 (raw_cmd t);
  Pio.map pio ~base:bm_base ~count:8 (raw_bm t);
  Pio.map pio ~base:ctrl_base ~count:1 (raw_ctrl t);
  t
