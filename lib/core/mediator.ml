module Sim = Bmcast_engine.Sim
module Time = Bmcast_engine.Time
module Semaphore = Bmcast_engine.Semaphore
module Ring = Bmcast_engine.Ring
module Signal = Bmcast_engine.Signal
module Cpu = Bmcast_hw.Cpu
module Content = Bmcast_storage.Content
module Dma = Bmcast_storage.Dma
module Machine = Bmcast_platform.Machine
module Aoe_client = Bmcast_proto.Aoe_client
module Trace = Bmcast_obs.Trace
module Metrics = Bmcast_obs.Metrics
module Histogram = Bmcast_obs.Stats.Histogram

type op = Read | Write | Other

type device = {
  name : string;
  max_sectors : int;
  buf : Dma.buf;
  idle : unit -> bool;
  restartable : unit -> bool;
  settled : unit -> bool;
  mask_irq : unit -> unit;
  unmask_irq : unit -> unit;
  issue : op -> lba:int -> count:int -> int;
  completed : unit -> bool;
  remove : unit -> unit;
}

type 'cmd guest = {
  forward : 'cmd -> unit;
  forward_dummy : 'cmd -> lba:int -> unit;
  withhold : 'cmd -> unit;
  prds : 'cmd -> Dma.prd list;
}

type stats = {
  mutable redirects : int;
  mutable redirected_sectors : int;
  mutable multiplexed_ops : int;
  mutable queued_commands : int;
}

type t = {
  machine : Machine.t;
  traced : bool;  (* [Trace.on] for "mediator", resolved once at create *)
  dev : device;
  aoe : Aoe_client.t;
  bitmap : Bitmap.t;
  params : Params.t;
  mutable held : bool;  (* a VMM command occupies the device *)
  queued : (unit -> unit) Queue.t;  (* replays of intercepted guest commands *)
  lock : Semaphore.t;
  ready : Signal.Latch.t;
  mutable cached_lba : int;  (* a sector known to be in the disk cache *)
  mutable last_guest_lba : int;
      (* background-copy locality hint; [no_hint] before the first read *)
  mutable protected_region : (int * int) option;
      (* guest access here is converted to a dummy-sector read (the
         saved-bitmap region, 3.3) *)
  (* moderation input: timestamps of recent guest commands, oldest
     first *)
  io_times : Time.t Ring.t;
  mutable inflight_redirects : int;
  (* §4.1: polling intervals are estimated from recent I/O latencies;
     EWMA of VMM command service times. *)
  mutable cmd_time_ewma : Time.span;
  stats : stats;
  redirect_latency : Histogram.t;
}

let no_hint = -1

let create machine ~aoe ~bitmap ~params dev =
  { machine;
    traced = Trace.on (Sim.trace machine.Machine.sim) ~cat:"mediator";
    dev;
    aoe;
    bitmap;
    params;
    held = false;
    queued = Queue.create ();
    lock = Semaphore.create 1;
    ready = Signal.Latch.create ();
    cached_lba = 0;
    last_guest_lba = no_hint;
    protected_region = None;
    io_times = Ring.create ();
    inflight_redirects = 0;
    cmd_time_ewma = 0;
    stats =
      { redirects = 0;
        redirected_sectors = 0;
        multiplexed_ops = 0;
        queued_commands = 0 };
    redirect_latency =
      Metrics.histogram
        (Sim.metrics machine.Machine.sim)
        ~labels:[ ("disk", dev.name) ]
        "redirect_latency_ms" }

let stats t = t.stats
let held t = t.held
let dma_addr t = t.dev.buf.Dma.addr
let set_ready t = Signal.Latch.set t.ready
let wait_device_ready t = Signal.Latch.wait t.ready
let set_protected_region t ~lba ~count = t.protected_region <- Some (lba, count)
let guest_last_lba t =
  if t.last_guest_lba = no_hint then None else Some t.last_guest_lba
let redirect_active t = t.inflight_redirects > 0

(* Every trapped access costs one VM exit. *)
let trap t reason =
  Cpu.record_exit t.machine.Machine.cpu reason ~cost:t.params.Params.exit_cost;
  Sim.sleep t.params.Params.exit_cost

let poll t = Sim.sleep t.params.Params.poll_interval

(* Guest I/O rate uses a short (250 ms) trailing window so moderation
   reacts quickly when a storage burst begins. *)
let rate_window = Time.ms 250

(* Timestamps are pushed at the current time, so those that left the
   window are a prefix of the ring. *)
let trim_io_times t =
  let horizon = Time.diff (Sim.now t.machine.Machine.sim) rate_window in
  while (not (Ring.is_empty t.io_times)) && Ring.peek t.io_times < horizon do
    ignore (Ring.pop t.io_times : Time.t)
  done

let note_guest_io t =
  Ring.push t.io_times (Sim.now t.machine.Machine.sim);
  trim_io_times t

let guest_io_rate t =
  trim_io_times t;
  float_of_int (Ring.length t.io_times) /. Time.to_float_s rate_window

(* The bitmap covers only the deployed image; guest I/O beyond it (fresh
   data regions) needs no mediation. *)
let empty_in_image t ~lba ~count =
  let limit = t.params.Params.image_sectors in
  if lba >= limit then []
  else Bitmap.empty_subranges t.bitmap ~lba ~count:(min count (limit - lba))

let fill_in_image t ~lba ~count =
  let limit = t.params.Params.image_sectors in
  if lba < limit then
    ignore (Bitmap.fill_range t.bitmap ~lba ~count:(min count (limit - lba)) : int)

let overlaps_protected t ~lba ~count =
  match t.protected_region with
  | Some (pl, pc) -> pl < lba + count && lba < pl + pc
  | None -> false

(* --- multiplexed VMM commands (§3.2 I/O multiplexing) --- *)

let rec drain_queue t =
  match Queue.take_opt t.queued with
  | None -> ()
  | Some replay ->
    replay ();
    drain_queue t

(* Hold the device for a sequence of VMM commands: wait until it is
   idle, present an idle device to the guest and mask its interrupt;
   [release] restores both. Guest commands issued while the device is
   held are queued and replayed by [release] — and because they execute
   strictly after ours, anything the guest writes still lands last (the
   consistency rule of Section 3.3). *)
let hold t =
  Semaphore.acquire t.lock;
  (* The check-then-claim is atomic: no simulation time passes between
     the last poll and setting [held]. *)
  while not (t.dev.idle ()) do
    poll t
  done;
  t.held <- true;
  t.dev.mask_irq ()

let release t =
  t.dev.unmask_irq ();
  t.held <- false;
  Semaphore.release t.lock;
  drain_queue t

(* A command that raises gives back the binding and the permit, as the
   guest drivers do. *)
let abandon t e =
  Dma.unbind t.dev.buf;
  Semaphore.release t.lock;
  raise e

(* Issue one VMM command on [a.(pos .. pos + count - 1)] and poll for
   completion; the device must be held. The DMA buffer names the
   caller's array only while the command is in flight, so no array
   stays reachable from the DMA registry. *)
let issue_vmm t op ~lba ~count a ~pos =
  let issued_at = Sim.now t.machine.Machine.sim in
  Dma.bind t.dev.buf a ~pos ~sectors:count;
  let programmed = t.dev.issue op ~lba ~count in
  (* Adaptive polling: sleep most of the expected service time first,
     then fall back to fine-grained polls. *)
  if t.cmd_time_ewma > t.params.Params.poll_interval then
    Sim.sleep (Time.mul (Time.div t.cmd_time_ewma 10) 8);
  while not (t.dev.completed ()) do
    poll t
  done;
  Dma.unbind t.dev.buf;
  let took = Time.diff (Sim.now t.machine.Machine.sim) issued_at in
  t.cmd_time_ewma <-
    (if t.cmd_time_ewma = 0 then took
     else Time.div (Time.add (Time.mul t.cmd_time_ewma 7) took) 8);
  t.stats.multiplexed_ops <- t.stats.multiplexed_ops + 1;
  if t.traced then
    Trace.complete (Sim.trace t.machine.Machine.sim) ~cat:"mediator"
      ~args:[ ("lba", Trace.Int lba); ("count", Trace.Int programmed) ]
      "multiplexed-cmd" ~ts:issued_at

(* [count] sectors from [lba] through [a] from [pos] on, in commands the
   device accepts. Each command holds the device on its own, so queued
   guest commands run between them. *)
let rec each_held t op ~lba ~count a ~pos ~off =
  if off < count then begin
    let n = min t.dev.max_sectors (count - off) in
    hold t;
    (match issue_vmm t op ~lba:(lba + off) ~count:n a ~pos:(pos + off) with
    | () -> release t
    | exception e -> abandon t e);
    each_held t op ~lba ~count a ~pos ~off:(off + n)
  end

let check_window what ~count a ~pos =
  if count > 0 && (pos < 0 || pos > Array.length a - count) then
    invalid_arg
      (Printf.sprintf "Mediator.%s: %d sectors at %d leave the array (%d)"
         what count pos (Array.length a))

let vmm_read t ~lba ~count dst ~pos =
  check_window "vmm_read" ~count dst ~pos;
  each_held t Read ~lba ~count dst ~pos ~off:0;
  (* The disk caches the last command's sectors, so a dummy read of that
     command's first sector hits. *)
  t.cached_lba <- lba + ((count - 1) / t.dev.max_sectors * t.dev.max_sectors)

let vmm_write t ~lba ~count data =
  check_window "vmm_write" ~count data ~pos:0;
  each_held t Write ~lba ~count data ~pos:0 ~off:0

(* Commands over the run [run, run + count) of a held device; sector
   [s] comes from [data.(base + s)]. *)
let rec write_run t data ~base ~run ~count ~off =
  if off < count then begin
    let n = min t.dev.max_sectors (count - off) in
    issue_vmm t Write ~lba:(run + off) ~count:n data ~pos:(base + run + off);
    write_run t data ~base ~run ~count ~off:(off + n)
  end

(* Write and mark each empty run of [from, limit) in turn; returns
   [written] plus the sectors written. Sectors past the image (the
   bitmap's end) count as filled. *)
let rec write_empty_runs t data ~base ~limit ~from written =
  let s = Bitmap.next_empty t.bitmap ~from ~limit in
  if s >= limit then written
  else begin
    let e = Bitmap.next_filled t.bitmap ~from:(s + 1) ~limit in
    write_run t data ~base ~run:s ~count:(e - s) ~off:0;
    ignore (Bitmap.fill_range t.bitmap ~lba:s ~count:(e - s) : int);
    write_empty_runs t data ~base ~limit ~from:e (written + e - s)
  end

(* Write only sectors still empty, with the emptiness check made while
   holding the device — atomic with respect to guest writes, which are
   either already in the bitmap (checked here) or queued behind us (and
   then overwrite us, which is the correct final state). Marks written
   sectors filled. Returns the number of sectors written. *)
let vmm_write_empty t ~lba ~count data ~pos =
  check_window "vmm_write_empty" ~count data ~pos;
  hold t;
  match
    write_empty_runs t data ~base:(pos - lba) ~limit:(lba + count) ~from:lba 0
  with
  | written ->
    release t;
    written
  | exception e -> abandon t e

(* --- copy-on-read (§3.2 I/O redirection) --- *)

(* The sub-ranges of [lba, lba + count) not in [empty] (sorted,
   disjoint). *)
let filled_parts ~lba ~count empty =
  let acc = ref [] and pos = ref lba in
  List.iter
    (fun (e_lba, e_count) ->
      if e_lba > !pos then acc := (!pos, e_lba - !pos) :: !acc;
      pos := e_lba + e_count)
    empty;
  if !pos < lba + count then acc := (!pos, lba + count - !pos) :: !acc;
  List.rev !acc

let redirect t g c ~lba ~count =
  t.stats.redirects <- t.stats.redirects + 1;
  t.inflight_redirects <- t.inflight_redirects + 1;
  let sim = t.machine.Machine.sim in
  let started = Sim.now sim in
  let data = Content.zeroes ~count in
  (* Assemble the request in [data]: empty sub-ranges from the server
     (2. Retrieve), filled sub-ranges from the local disk via
     multiplexed reads. Each lands in its own window of [data], so a
     write-back still reading one window never meets a read filling
     another. *)
  let empty = empty_in_image t ~lba ~count in
  List.iter
    (fun (sub_lba, sub_count) ->
      let pos = sub_lba - lba in
      Aoe_client.read_into t.aoe ~lba:sub_lba ~count:sub_count data ~pos;
      t.stats.redirected_sectors <- t.stats.redirected_sectors + sub_count;
      (* Write back to the local disk for future use — asynchronously,
         so the guest's read does not also pay the local write. The
         write-back re-checks the bitmap and skips any sector the guest
         wrote in the meantime (same consistency rule as the background
         copy). *)
      t.inflight_redirects <- t.inflight_redirects + 1;
      Sim.spawn ~name:(t.dev.name ^ "-writeback") (fun () ->
          ignore
            (vmm_write_empty t ~lba:sub_lba ~count:sub_count data ~pos : int);
          t.inflight_redirects <- t.inflight_redirects - 1))
    empty;
  List.iter
    (fun (f_lba, f_count) ->
      vmm_read t ~lba:f_lba ~count:f_count data ~pos:(f_lba - lba))
    (filled_parts ~lba ~count empty);
  (* 3. Copy: act as a virtual DMA controller into the guest buffers. *)
  Dma.scatter t.machine.Machine.dma (g.prds c) data ~count;
  if t.traced then
    Trace.instant (Sim.trace sim) ~cat:"mediator"
      ~args:[ ("sectors", Trace.Int count) ]
      "virtual-dma";
  (* 4. Restart: reissue the command as a single dummy-sector read that
     hits the disk cache and let the device generate the interrupt.
     Serialize with VMM commands so the dummy does not complete inside
     a masked-interrupt window. *)
  Semaphore.with_permit t.lock (fun () ->
      while not (t.dev.restartable ()) do
        poll t
      done;
      t.inflight_redirects <- t.inflight_redirects - 1;
      g.forward_dummy c ~lba:t.cached_lba);
  Histogram.add t.redirect_latency
    (Time.to_float_ms (Time.diff (Sim.now sim) started));
  if t.traced then
    Trace.complete (Sim.trace sim) ~cat:"mediator"
      ~args:
        [ ("m", Trace.Str t.machine.Machine.name);
          ("stage", Trace.Str "copy_on_read");
          ("lba", Trace.Int lba);
          ("count", Trace.Int count) ]
      "redirect" ~ts:started

(* --- guest command dispatch (after the controller's interpretation) --- *)

let rec dispatch t g c ~op ~lba ~count =
  (* Locality hint for the background copy: follow guest READS (data
     the OS will want nearby soon); following writes would make the
     copy chase regions the guest is populating itself. *)
  if op = Read then t.last_guest_lba <- lba + count;
  if t.held then begin
    (* A VMM command occupies the device: intercept and queue. *)
    g.withhold c;
    Queue.add (fun () -> dispatch t g c ~op ~lba ~count) t.queued;
    t.stats.queued_commands <- t.stats.queued_commands + 1;
    if t.traced then
      Trace.counter (Sim.trace t.machine.Machine.sim) ~cat:"mediator"
        (t.dev.name ^ "-queue-depth")
        (float_of_int (Queue.length t.queued))
  end
  else if op <> Other && overlaps_protected t ~lba ~count then
    (* 3.3: the guest must not touch the saved-bitmap region; convert
       the access into a harmless dummy-sector read. *)
    g.forward_dummy c ~lba:t.cached_lba
  else
    match op with
    | Write ->
      (* Mark written blocks filled before the device sees the command,
         so no background fill can clobber them afterwards. *)
      fill_in_image t ~lba ~count;
      g.forward c
    | Other -> g.forward c
    | Read ->
      if empty_in_image t ~lba ~count = [] then begin
        t.cached_lba <- lba;
        g.forward c
      end
      else begin
        g.withhold c;
        Sim.spawn ~name:(t.dev.name ^ "-redirect") (fun () ->
            redirect t g c ~lba ~count)
      end

let submit t g c ~op ~lba ~count =
  note_guest_io t;
  dispatch t g c ~op ~lba ~count

let devirtualize t =
  (* Quiesce: no redirect in flight, no queued or withheld guest
     command, and the VMM not holding the device. *)
  let quiet () =
    t.inflight_redirects = 0 && Queue.is_empty t.queued && (not t.held)
    && t.dev.settled ()
  in
  while not (quiet ()) do
    poll t
  done;
  Semaphore.with_permit t.lock t.dev.remove;
  if t.traced then
    Trace.instant (Sim.trace t.machine.Machine.sim) ~cat:"mediator"
      "devirtualized"
