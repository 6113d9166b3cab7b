module Sim = Bmcast_engine.Sim
module Time = Bmcast_engine.Time
module Ring = Bmcast_engine.Ring
module Mmio = Bmcast_hw.Mmio
module Irq = Bmcast_hw.Irq

type op = Read | Write
type prd = Dma.prd = { buf_addr : int; mutable sectors : int }

type cmd_table = {
  mutable op : op;
  mutable lba : int;
  mutable count : int;
  mutable prdt : prd list;
}

module Regs = struct
  let px_clb = 0x100
  let px_is = 0x110
  let px_ie = 0x114
  let px_cmd = 0x118
  let px_tfd = 0x120
  let px_ci = 0x138
end

let tfd_bsy = 0x80

(* A command list maps each slot to a table address, [empty_slot] when
   the slot points nowhere. *)
type structure = Cmd_list of int array | Cmd_table of cmd_table

let struct_base = 0x8000_0000
let empty_slot = -1

(* Per-command controller processing overhead (command fetch, FIS
   handling); the disk model charges the rest. *)
let command_overhead = Time.us 20

type t = {
  sim : Sim.t;
  dma : Dma.t;
  disk : Disk.t;
  irq : Irq.t;
  irq_vec : int;
  (* registers *)
  mutable clb : int;
  mutable is_reg : int;
  mutable ie : int;
  mutable cmd : int;
  mutable ci : int;
  (* guest-memory structures: the one at [struct_base + i * 0x1000] is
     [structs.(i)] *)
  mutable structs : structure array;
  (* service *)
  work : int Ring.t;  (* slots awaiting service, FIFO *)
  work_ready : Sim.wait_queue;  (* the service loop, while [work] is empty *)
  mutable serving : bool;
  mutable commands_processed : int;
  mutable irqs_raised : int;
}

let commands_processed t = t.commands_processed
let irqs_raised t = t.irqs_raised

(* --- guest-memory structures --- *)

(* Structures are allocated when a driver or mediator attaches, a few
   per controller, so the array grows by one. *)
let add_structure t s =
  let addr = struct_base + (Array.length t.structs * 0x1000) in
  t.structs <- Array.append t.structs [| s |];
  addr

(* The structure at [addr]; [Not_found] if none starts there. *)
let structure t addr =
  let off = addr - struct_base in
  if off < 0 || off land 0xFFF <> 0 || off lsr 12 >= Array.length t.structs
  then raise Not_found;
  t.structs.(off lsr 12)

let alloc_cmd_list t = add_structure t (Cmd_list (Array.make 32 empty_slot))

let find_cmd_list t addr =
  match structure t addr with
  | Cmd_list l -> l
  | Cmd_table _ | (exception Not_found) ->
    invalid_arg (Printf.sprintf "Ahci: no command list at 0x%x" addr)

let alloc_cmd_table t ~op ~lba ~count prdt =
  add_structure t (Cmd_table { op; lba; count; prdt })

let cmd_table t ~addr =
  match structure t addr with
  | Cmd_table ct -> ct
  | Cmd_list _ | (exception Not_found) ->
    invalid_arg (Printf.sprintf "Ahci: no command table at 0x%x" addr)

let check_slot slot =
  if slot < 0 || slot > 31 then invalid_arg "Ahci: slot out of range"

let set_slot t ~clb ~slot ~table_addr =
  check_slot slot;
  (find_cmd_list t clb).(slot) <- table_addr

let slot_table_addr t ~clb ~slot =
  check_slot slot;
  let a = (find_cmd_list t clb).(slot) in
  if a = empty_slot then
    invalid_arg (Printf.sprintf "Ahci: slot %d is empty" slot);
  a

(* --- command execution --- *)

let execute t slot =
  let table_addr = slot_table_addr t ~clb:t.clb ~slot in
  let ct = cmd_table t ~addr:table_addr in
  Sim.sleep command_overhead;
  let lba = ct.lba and count = ct.count in
  let prd_total = Dma.prd_sectors ct.prdt in
  if prd_total < count then
    invalid_arg
      (Printf.sprintf "Ahci: PRDT covers %d sectors but command needs %d"
         prd_total count);
  (* Sector staging between disk and PRD buffers goes through a pooled
     scratch array; both directions copy, so the buffer is dead again by
     the end of the command. *)
  (match ct.op with
  | Read ->
    let data = Content.Scratch.alloc count in
    Disk.read_into t.disk ~lba ~count data;
    Dma.scatter t.dma ct.prdt data ~count;
    Content.Scratch.release data
  | Write ->
    let data = Content.Scratch.alloc count in
    Dma.gather t.dma ct.prdt data ~count;
    Disk.write t.disk ~lba ~count data;
    Content.Scratch.release data);
  t.commands_processed <- t.commands_processed + 1;
  (* Completion: clear CI bit, set interrupt status, raise IRQ. *)
  t.ci <- t.ci land lnot (1 lsl slot);
  t.is_reg <- t.is_reg lor 1;
  if t.ie land 1 <> 0 then begin
    t.irqs_raised <- t.irqs_raised + 1;
    Irq.raise_irq t.irq ~vec:t.irq_vec
  end

let rec service_loop t =
  Sim.wait t.work_ready;
  let slot = Ring.pop t.work in
  t.serving <- true;
  execute t slot;
  t.serving <- not (Ring.is_empty t.work);
  service_loop t

(* --- registers --- *)

let reg_read t off =
  if off = Regs.px_clb then t.clb
  else if off = Regs.px_is then t.is_reg
  else if off = Regs.px_ie then t.ie
  else if off = Regs.px_cmd then t.cmd
  else if off = Regs.px_tfd then
    if t.serving || not (Ring.is_empty t.work) then tfd_bsy else 0
  else if off = Regs.px_ci then t.ci
  else invalid_arg (Printf.sprintf "Ahci: read of unknown register 0x%x" off)

let reg_write t off v =
  if off = Regs.px_clb then t.clb <- v
  else if off = Regs.px_is then t.is_reg <- t.is_reg land lnot v
  else if off = Regs.px_ie then t.ie <- v
  else if off = Regs.px_cmd then t.cmd <- v
  else if off = Regs.px_ci then begin
    if t.cmd land 1 = 0 then
      invalid_arg "Ahci: command issued while port stopped (PxCMD.ST=0)";
    (* Issue slots newly set in v. *)
    for slot = 0 to 31 do
      let bit = 1 lsl slot in
      if v land bit <> 0 && t.ci land bit = 0 then begin
        t.ci <- t.ci lor bit;
        Ring.push t.work slot;
        Sim.wake_all t.work_ready
      end
    done
  end
  else invalid_arg (Printf.sprintf "Ahci: write of unknown register 0x%x" off)

let raw_handler t =
  { Mmio.read = reg_read t; write = reg_write t }

let create sim ~mmio ~base ~dma ~disk ~irq ~irq_vec =
  let work = Ring.create () in
  let t =
    { sim;
      dma;
      disk;
      irq;
      irq_vec;
      clb = 0;
      is_reg = 0;
      ie = 0;
      cmd = 0;
      ci = 0;
      structs = [||];
      work;
      work_ready = Sim.wait_queue sim (fun () -> not (Ring.is_empty work));
      serving = false;
      commands_processed = 0;
      irqs_raised = 0 }
  in
  Mmio.map mmio ~base ~size:0x200 (raw_handler t);
  Sim.spawn_at sim ~name:"ahci-service" (Sim.now sim) (fun () -> service_loop t);
  t

let raw = raw_handler
