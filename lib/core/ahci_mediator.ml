module Mmio = Bmcast_hw.Mmio
module Cpu = Bmcast_hw.Cpu
module Dma = Bmcast_storage.Dma
module Ahci = Bmcast_storage.Ahci
module Machine = Bmcast_platform.Machine

(* The slot the VMM uses for its own multiplexed commands; guest drivers
   allocate upward from 0, so the top slot stays free. *)
let vmm_slot = 31

let vmm_slot_bit = 1 lsl vmm_slot

type t = {
  ahci : Ahci.t;
  raw : Mmio.handler;
  dummy_prdt : Dma.prd list;  (* one sector of a VMM-owned buffer *)
  vmm_table_addr : int;  (* slot 31's command table ... *)
  vmm_table : Ahci.cmd_table;  (* ... rewritten per command *)
  vmm_prd : Dma.prd;  (* its one entry: the mediator's buffer, [sectors] per command *)
  vmm_prdt : Dma.prd list;  (* [[vmm_prd]] *)
  (* guest-view emulation *)
  mutable ghost_ci : int;  (* bits the guest believes are on the device *)
  mutable guest_ie : int;
}

let current_clb t = t.raw.Mmio.read Ahci.Regs.px_clb

(* A guest command is known by its slot; the slot's command table in
   guest memory holds the rest. *)
let table t slot =
  Ahci.cmd_table t.ahci
    ~addr:(Ahci.slot_table_addr t.ahci ~clb:(current_clb t) ~slot)

let forward t slot =
  t.ghost_ci <- t.ghost_ci land lnot (1 lsl slot);
  t.raw.Mmio.write Ahci.Regs.px_ci (1 lsl slot)

(* The command-manipulation trick: command tables are guest memory, so
   the mediator rewrites one in place before the device fetches it. *)
let guest t =
  { Mediator.forward = forward t;
    forward_dummy =
      (fun slot ~lba ->
        let ct = table t slot in
        ct.Ahci.op <- Ahci.Read;
        ct.Ahci.lba <- lba;
        ct.Ahci.count <- 1;
        ct.Ahci.prdt <- t.dummy_prdt;
        forward t slot);
    withhold = (fun slot -> t.ghost_ci <- t.ghost_ci lor (1 lsl slot));
    prds = (fun slot -> (table t slot).Ahci.prdt) }

(* VMM commands run in slot 31, completion polled on PxCI. The slot is
   set on every command because the guest may have moved its command
   list. *)
let issue t op ~lba ~count =
  let ct = t.vmm_table in
  ct.Ahci.op <- (if op = Mediator.Write then Ahci.Write else Ahci.Read);
  ct.Ahci.lba <- lba;
  ct.Ahci.count <- count;
  t.vmm_prd.Dma.sectors <- count;
  ct.Ahci.prdt <- t.vmm_prdt;
  Ahci.set_slot t.ahci ~clb:(current_clb t) ~slot:vmm_slot
    ~table_addr:t.vmm_table_addr;
  t.raw.Mmio.write Ahci.Regs.px_ci vmm_slot_bit;
  count

let completed t () =
  if t.raw.Mmio.read Ahci.Regs.px_ci land vmm_slot_bit <> 0 then false
  else begin
    (* Acknowledge our completion. *)
    t.raw.Mmio.write Ahci.Regs.px_is 1;
    true
  end

let device machine t buf =
  { Mediator.name = "ahci";
    max_sectors = max_int;
    buf;
    (* PxIS must be clear too: our own acknowledge would otherwise
       swallow a guest interrupt status bit and hang its driver. *)
    idle =
      (fun () ->
        t.raw.Mmio.read Ahci.Regs.px_ci land lnot vmm_slot_bit = 0
        && t.raw.Mmio.read Ahci.Regs.px_is = 0);
    restartable = (fun () -> t.raw.Mmio.read Ahci.Regs.px_is = 0);
    settled = (fun () -> t.ghost_ci = 0);
    mask_irq = (fun () -> t.raw.Mmio.write Ahci.Regs.px_ie 0);
    unmask_irq = (fun () -> t.raw.Mmio.write Ahci.Regs.px_ie t.guest_ie);
    issue = issue t;
    completed = completed t;
    remove =
      (fun () ->
        Mmio.remove_interposer machine.Machine.mmio ~base:Machine.ahci_base) }

(* --- the interposer (I/O interpretation) --- *)

let submit t m g slot =
  let ct = table t slot in
  let op = match ct.Ahci.op with Ahci.Read -> Mediator.Read | Write -> Write in
  Mediator.submit m g slot ~op ~lba:ct.Ahci.lba ~count:ct.Ahci.count

let on_write t m g ~next off v =
  Mediator.trap m Cpu.Mmio;
  if off = Ahci.Regs.px_ci then begin
    let known = t.raw.Mmio.read Ahci.Regs.px_ci lor t.ghost_ci in
    for slot = 0 to 31 do
      let bit = 1 lsl slot in
      if v land bit <> 0 && known land bit = 0 then submit t m g slot
    done
  end
  else if off = Ahci.Regs.px_ie then begin
    t.guest_ie <- v;
    if not (Mediator.held m) then next off v
  end
  else begin
    (* The guest driver starting the port (PxCMD.ST) makes the command
       list usable for VMM commands. *)
    if off = Ahci.Regs.px_cmd && v land 1 <> 0 then Mediator.set_ready m;
    next off v
  end

let on_read t m ~next off =
  Mediator.trap m Cpu.Mmio;
  let held = Mediator.held m in
  if off = Ahci.Regs.px_ci then
    if held then t.ghost_ci else next off lor t.ghost_ci
  else if off = Ahci.Regs.px_tfd then begin
    if held then if t.ghost_ci <> 0 then Ahci.tfd_bsy else 0
    else if t.ghost_ci <> 0 then next off lor Ahci.tfd_bsy
    else next off
  end
  else if off = Ahci.Regs.px_is && held then 0
  else if off = Ahci.Regs.px_ie then t.guest_ie
  else next off

let attach machine ahci ~aoe ~bitmap ~params =
  let dma = machine.Machine.dma in
  let dummy = Dma.alloc dma ~sectors:1 in
  let dummy_prdt = [ { Dma.buf_addr = dummy.Dma.addr; sectors = 1 } ] in
  let buf = Dma.bindable dma in
  let vmm_prd = { Dma.buf_addr = buf.Dma.addr; sectors = 0 } in
  let vmm_prdt = [ vmm_prd ] in
  let vmm_table_addr =
    Ahci.alloc_cmd_table ahci ~op:Ahci.Read ~lba:0 ~count:0 vmm_prdt
  in
  let t =
    { ahci;
      raw = Ahci.raw ahci;
      dummy_prdt;
      vmm_table_addr;
      vmm_table = Ahci.cmd_table ahci ~addr:vmm_table_addr;
      vmm_prd;
      vmm_prdt;
      ghost_ci = 0;
      guest_ie = 0 }
  in
  let m =
    Mediator.create machine ~aoe ~bitmap ~params (device machine t buf)
  in
  let g = guest t in
  Mmio.interpose machine.Machine.mmio ~base:Machine.ahci_base
    { Mmio.on_read = (fun ~next off -> on_read t m ~next off);
      on_write = (fun ~next off v -> on_write t m g ~next off v) };
  m
