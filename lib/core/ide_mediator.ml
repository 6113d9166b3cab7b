module Pio = Bmcast_hw.Pio
module Cpu = Bmcast_hw.Cpu
module Dma = Bmcast_storage.Dma
module Ide = Bmcast_storage.Ide
module Machine = Bmcast_platform.Machine

(* A fully-interpreted guest command, snapshotted from the shadow task
   file at bus-master start. *)
type command = {
  cmd : int;
  lba : int;
  count : int;
  prdt_addr : int;
  bm_cmd : int;
}

type t = {
  ide : Ide.t;
  raw_cmd : Pio.handler;
  raw_bm : Pio.handler;
  raw_ctrl : Pio.handler;
  dummy_prdt : int;
  vmm_prdt : int;  (* the VMM commands' PRD table ... *)
  vmm_prd : Dma.prd;  (* ... whose one entry is rewritten per command *)
  (* shadow task file (I/O interpretation) *)
  mutable sh_seccount : int;
  mutable sh_lba0 : int;
  mutable sh_lba1 : int;
  mutable sh_lba2 : int;
  mutable sh_device : int;
  mutable sh_prdt : int;
  mutable sh_ctrl : int;
  mutable armed : int option;  (* command register written, DMA not started *)
  mutable ghost_busy : bool;  (* a withheld guest command "occupies" the device *)
}

let shadow_lba t =
  t.sh_lba0 lor (t.sh_lba1 lsl 8) lor (t.sh_lba2 lsl 16)
  lor ((t.sh_device land 0x0F) lsl 24)

let shadow_count t = if t.sh_seccount = 0 then 256 else t.sh_seccount

(* Program the physical device with a command, bypassing interposers.
   The fields come as arguments, so a VMM command or a dummy read builds
   no [command] record. *)
let program_device t ~cmd ~lba ~count ~prdt_addr ~bm_cmd =
  t.raw_bm.Pio.outp Ide.Bm.prdt prdt_addr;
  t.raw_cmd.Pio.outp Ide.Regs.seccount (count land 0xFF);
  t.raw_cmd.Pio.outp Ide.Regs.lba0 (lba land 0xFF);
  t.raw_cmd.Pio.outp Ide.Regs.lba1 ((lba lsr 8) land 0xFF);
  t.raw_cmd.Pio.outp Ide.Regs.lba2 ((lba lsr 16) land 0xFF);
  t.raw_cmd.Pio.outp Ide.Regs.device (0xE0 lor ((lba lsr 24) land 0x0F));
  t.raw_cmd.Pio.outp Ide.Regs.command cmd;
  t.raw_bm.Pio.outp Ide.Bm.command bm_cmd

let device_busy t = t.raw_cmd.Pio.inp Ide.Regs.command land Ide.status_bsy <> 0

let forward t c =
  t.ghost_busy <- false;
  program_device t ~cmd:c.cmd ~lba:c.lba ~count:c.count ~prdt_addr:c.prdt_addr
    ~bm_cmd:c.bm_cmd

let guest t =
  { Mediator.forward = forward t;
    forward_dummy =
      (fun _ ~lba ->
        t.ghost_busy <- false;
        program_device t ~cmd:Ide.cmd_read_dma ~lba ~count:1
          ~prdt_addr:t.dummy_prdt ~bm_cmd:(0x01 lor 0x08));
    withhold = (fun _ -> t.ghost_busy <- true);
    prds = (fun c -> Ide.prdt t.ide ~addr:c.prdt_addr) }

(* The task file's sector count is 8 bits: a 256-sector command programs
   0 (and is traced so). *)
let issue t op ~lba ~count =
  t.vmm_prd.Dma.sectors <- count;
  let programmed = count land 0xFF in
  if op = Mediator.Write then
    program_device t ~cmd:Ide.cmd_write_dma ~lba ~count:programmed
      ~prdt_addr:t.vmm_prdt ~bm_cmd:0x01
  else
    program_device t ~cmd:Ide.cmd_read_dma ~lba ~count:programmed
      ~prdt_addr:t.vmm_prdt ~bm_cmd:(0x01 lor 0x08);
  programmed

(* Completion is polled on the bus-master IRQ bit. *)
let completed t () =
  if device_busy t || t.raw_bm.Pio.inp Ide.Bm.status land 0x04 = 0 then false
  else begin
    t.raw_bm.Pio.outp Ide.Bm.status 0x04;
    true
  end

(* The device is idle, no guest command is armed mid-sequence, and the
   previous completion was consumed. *)
let idle t () =
  not
    (device_busy t || t.armed <> None
    || t.raw_bm.Pio.inp Ide.Bm.status land 0x04 <> 0)

let device machine t buf =
  { Mediator.name = "ide";
    max_sectors = 256;
    buf;
    idle = idle t;
    (* The dummy must not be programmed over a VMM command. *)
    restartable = idle t;
    settled = (fun () -> (not t.ghost_busy) && t.armed = None);
    (* nIEN replaces the AHCI PxIE mask. *)
    mask_irq = (fun () -> t.raw_ctrl.Pio.outp 0 Ide.ctrl_nien);
    unmask_irq = (fun () -> t.raw_ctrl.Pio.outp 0 t.sh_ctrl);
    issue = issue t;
    completed = completed t;
    remove =
      (fun () ->
        let pio = machine.Machine.pio in
        Pio.remove_interposer pio ~base:Machine.ide_cmd_base;
        Pio.remove_interposer pio ~base:Machine.ide_bm_base;
        Pio.remove_interposer pio ~base:Machine.ide_ctrl_base) }

(* --- interposers (I/O interpretation) --- *)

let submit m g c =
  let op =
    if c.cmd = Ide.cmd_read_dma then Mediator.Read
    else if c.cmd = Ide.cmd_write_dma then Write
    else Other
  in
  Mediator.submit m g c ~op ~lba:c.lba ~count:c.count

let on_cmd_out t m g ~next off v =
  Mediator.trap m Cpu.Pio;
  if off = Ide.Regs.seccount then t.sh_seccount <- v land 0xFF
  else if off = Ide.Regs.lba0 then t.sh_lba0 <- v land 0xFF
  else if off = Ide.Regs.lba1 then t.sh_lba1 <- v land 0xFF
  else if off = Ide.Regs.lba2 then t.sh_lba2 <- v land 0xFF
  else if off = Ide.Regs.device then t.sh_device <- v land 0xFF
  else if off = Ide.Regs.command then begin
    if v = Ide.cmd_flush then
      (* No bus-master phase: dispatch at command write. *)
      submit m g
        { cmd = v; lba = 0; count = 1; prdt_addr = t.dummy_prdt; bm_cmd = 0 }
    else t.armed <- Some v
  end
  else next off v

(* The status the guest sees: BSY while a withheld command occupies the
   device, DRDY while the VMM holds it. *)
let status t m ~next off =
  if t.ghost_busy then Ide.status_bsy
  else if Mediator.held m then Ide.status_drdy
  else next off

let on_cmd_in t m ~next off =
  Mediator.trap m Cpu.Pio;
  if off = Ide.Regs.command then status t m ~next off else next off

let on_bm_out t m g ~next off v =
  Mediator.trap m Cpu.Pio;
  if off = Ide.Bm.prdt then t.sh_prdt <- v
  else if off = Ide.Bm.command then begin
    if v land 0x01 <> 0 then begin
      match t.armed with
      | Some cmd ->
        t.armed <- None;
        submit m g
          { cmd;
            lba = shadow_lba t;
            count = shadow_count t;
            prdt_addr = t.sh_prdt;
            bm_cmd = v }
      | None ->
        (* Start with nothing armed: forward and let the device complain. *)
        next off v
    end
    else next off v
  end
  else next off v

let on_bm_in t m ~next off =
  Mediator.trap m Cpu.Pio;
  if off = Ide.Bm.status && (t.ghost_busy || Mediator.held m) then
    if t.ghost_busy then 0x01 (* active *) else 0x00
  else next off

let on_ctrl_out t m ~next off v =
  Mediator.trap m Cpu.Pio;
  t.sh_ctrl <- v;
  if not (Mediator.held m) then next off v

let on_ctrl_in t m ~next off =
  Mediator.trap m Cpu.Pio;
  status t m ~next off

let attach machine ide ~aoe ~bitmap ~params =
  let dma = machine.Machine.dma in
  let dummy = Dma.alloc dma ~sectors:1 in
  let buf = Dma.bindable dma in
  let vmm_prd = { Dma.buf_addr = buf.Dma.addr; sectors = 0 } in
  let t =
    { ide;
      raw_cmd = Ide.raw_cmd ide;
      raw_bm = Ide.raw_bm ide;
      raw_ctrl = Ide.raw_ctrl ide;
      dummy_prdt =
        Ide.register_prdt ide [ { Dma.buf_addr = dummy.Dma.addr; sectors = 1 } ];
      vmm_prdt = Ide.register_prdt ide [ vmm_prd ];
      vmm_prd;
      sh_seccount = 0;
      sh_lba0 = 0;
      sh_lba1 = 0;
      sh_lba2 = 0;
      sh_device = 0;
      sh_prdt = 0;
      sh_ctrl = 0;
      armed = None;
      ghost_busy = false }
  in
  let m =
    Mediator.create machine ~aoe ~bitmap ~params (device machine t buf)
  in
  (* IDE ports need no guest-side initialization before the VMM can use
     them (unlike AHCI's command list). *)
  Mediator.set_ready m;
  let g = guest t in
  let pio = machine.Machine.pio in
  Pio.interpose pio ~base:Machine.ide_cmd_base
    { Pio.on_in = (fun ~next off -> on_cmd_in t m ~next off);
      on_out = (fun ~next off v -> on_cmd_out t m g ~next off v) };
  Pio.interpose pio ~base:Machine.ide_bm_base
    { Pio.on_in = (fun ~next off -> on_bm_in t m ~next off);
      on_out = (fun ~next off v -> on_bm_out t m g ~next off v) };
  Pio.interpose pio ~base:Machine.ide_ctrl_base
    { Pio.on_in = (fun ~next off -> on_ctrl_in t m ~next off);
      on_out = (fun ~next off v -> on_ctrl_out t m ~next off v) };
  m
