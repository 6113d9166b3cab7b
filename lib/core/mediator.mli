(** The storage device mediator (§3.2), controller-independent half.

    The paper's mediator performs three tasks on the guest's disk
    controller. Only the first depends on the controller interface; this
    module implements the other two once, over a handful of device
    operations that {!Ahci_mediator} and {!Ide_mediator} supply from
    their register interpretation:

    {b I/O redirection} (copy-on-read) — a guest read touching empty
    blocks is withheld from the device; the data is fetched from the
    storage server over AoE, written back to the local disk, copied into
    the guest's DMA buffers by the mediator acting as a virtual DMA
    controller, and then the {e device itself} is made to raise the
    completion interrupt by reissuing the command as a one-sector dummy
    read that hits the disk cache.

    {b I/O multiplexing} — the VMM's own disk accesses ([vmm_read],
    [vmm_write], [vmm_write_empty]) wait for the device to go idle, mask
    the guest's interrupt, run with completion detected by polling, and
    present an emulated idle device to the guest; guest commands issued
    meanwhile are queued and replayed afterwards. Because they execute
    strictly after the VMM's, anything the guest writes still lands last
    (the consistency rule of §3.3). A VMM command moves its sectors by
    DMA straight to or from its caller's array: the device's one
    bindable buffer names the command's window of that array while the
    command is in flight, and nothing between commands. So {b nothing
    may write a VMM command's window while the command is in flight}.
    Other windows of the same array are free: a redirect's write-backs
    and its filled-part reads share its assembly array, each on its own
    sub-range.

    [devirtualize] removes the controller's interposers: all register
    traffic then flows directly to the hardware and the trap counter
    stops moving. *)

type op = Read | Write | Other
(** A command's operation. [Other] is a guest command that moves no
    image data (IDE FLUSH CACHE): it is never redirected or shielded. *)

type device = {
  name : string;
      (** ["ahci"] or ["ide"]: prefixes the mediator's process names and
          trace counter, and labels its metrics [disk=name] *)
  max_sectors : int;
      (** largest VMM command the device accepts; longer transfers are
          split ([max_int]: no limit) *)
  buf : Bmcast_storage.Dma.buf;
      (** a {!Bmcast_storage.Dma.bindable} buffer, the one entry of the
          VMM commands' scatter list; the mediator binds it to the
          caller's array for each command *)
  idle : unit -> bool;
      (** the device may be taken for VMM commands: nothing in flight,
          and the guest has consumed its last completion (otherwise the
          VMM's acknowledge would swallow a guest interrupt) *)
  restartable : unit -> bool;
      (** a withheld guest command may be reissued on the device *)
  settled : unit -> bool;
      (** no guest command is withheld or half-programmed *)
  mask_irq : unit -> unit;  (** hide the VMM's completions from the guest *)
  unmask_irq : unit -> unit;  (** restore the guest's interrupt setting *)
  issue : op -> lba:int -> count:int -> int;
      (** start a VMM [Read] or [Write] of at most [max_sectors] sectors
          through [buf] (bound to [count] sectors) while the device is
          held, rewriting one prebuilt scatter-list entry; returns the
          sector count as programmed into the device (traced as such) *)
  completed : unit -> bool;
      (** poll the VMM command; on [true] its completion has also been
          acknowledged at the device *)
  remove : unit -> unit;  (** remove the controller's interposers *)
}
(** What a controller supplies for the VMM's own commands. *)

type 'cmd guest = {
  forward : 'cmd -> unit;  (** pass the command to the device *)
  forward_dummy : 'cmd -> lba:int -> unit;
      (** reissue the command as a one-sector read of [lba] into a
          VMM-owned buffer, so the device completes it harmlessly *)
  withhold : 'cmd -> unit;
      (** keep the command off the device while the guest sees it
          outstanding; [forward]/[forward_dummy] end this *)
  prds : 'cmd -> Bmcast_storage.Dma.prd list;
      (** the guest's DMA scatter list *)
}
(** What a controller supplies for the guest commands it interprets;
    ['cmd] is its own handle for one (an AHCI slot, an IDE task-file
    snapshot). *)

type stats = {
  mutable redirects : int;
  mutable redirected_sectors : int;
  mutable multiplexed_ops : int;
  mutable queued_commands : int;
}

type t

(** {2 Controller side} *)

val create :
  Bmcast_platform.Machine.t ->
  aoe:Bmcast_proto.Aoe_client.t ->
  bitmap:Bitmap.t ->
  params:Params.t ->
  device ->
  t
(** A mediator over [device]; the controller then installs the
    interposers that feed it. *)

val trap : t -> Bmcast_hw.Cpu.exit_reason -> unit
(** Charge one VM exit for a trapped register access (process
    context). *)

val held : t -> bool
(** Whether VMM commands occupy the device; the controller then shows
    the guest an idle device. *)

val submit :
  t -> 'cmd guest -> 'cmd -> op:op -> lba:int -> count:int -> unit
(** Mediate a guest command the controller has just interpreted:
    queue it while the device is held, turn an access to the protected
    region into a dummy read, mark written sectors filled before the
    device sees them, pass reads of filled sectors through, and redirect
    reads that touch empty ones. *)

val set_ready : t -> unit
(** The guest driver has initialized the controller; VMM commands may
    use it from now on. *)

(** {2 VMM side} *)

val wait_device_ready : t -> unit
(** Block until {!set_ready} (process context). *)

val set_protected_region : t -> lba:int -> count:int -> unit
(** Guest commands touching this range are converted into dummy-sector
    reads — how the VMM shields its on-disk bitmap save (§3.3). *)

val vmm_read :
  t -> lba:int -> count:int -> Bmcast_storage.Content.t array -> pos:int -> unit
(** [vmm_read t ~lba ~count dst ~pos]: multiplexed VMM read of the local
    disk's sectors [lba .. lba + count - 1] into [dst.(pos .. pos + count
    - 1)], by DMA into [dst] (process context). Raises
    [Invalid_argument] before any command if the window leaves [dst]. *)

val vmm_write : t -> lba:int -> count:int -> Bmcast_storage.Content.t array -> unit
(** Multiplexed VMM write of [data.(0 .. count - 1)] (process
    context); raises as {!vmm_read} does. *)

val vmm_write_empty :
  t ->
  lba:int ->
  count:int ->
  Bmcast_storage.Content.t array ->
  pos:int ->
  int
(** [vmm_write_empty t ~lba ~count data ~pos] writes the sectors of
    [lba .. lba + count - 1] that are still unfilled, sector [s] from
    [data.(pos + s - lba)], with the emptiness check made {e while
    holding the device} — the atomic check-and-write of §3.3 that
    prevents a stale server block from clobbering a fresher guest
    write. Marks written sectors in the bitmap; returns how many
    sectors were written (process context); raises as {!vmm_read}
    does. The empty runs are found with
    {!Bitmap.next_empty}/{!Bitmap.next_filled} as they are written, so
    a fill builds no list. *)

val guest_io_rate : t -> float
(** Guest commands per second over the trailing window (moderation
    input). *)

val guest_last_lba : t -> int option
(** End LBA of the guest's most recent read (background-copy locality
    hint). *)

val redirect_active : t -> bool
(** Whether any copy-on-read redirection is in flight — the guest is
    actively faulting cold blocks (a stronger "busy" signal than the
    I/O rate, which collapses when fetches are slow). *)

val devirtualize : t -> unit
(** Quiesce (waits for in-flight mediation to drain) and remove the
    interposers (process context). *)

val stats : t -> stats

val dma_addr : t -> int
(** Address of the device's DMA buffer for VMM commands. Between
    commands it is unbound, so [Bmcast_storage.Dma.find] rejects it. *)
