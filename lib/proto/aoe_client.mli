(** AoE initiator with retransmission and fragment reassembly.

    Transport-agnostic: the owner supplies a [send] function (the BMcast
    VMM sends through its polling NIC driver; tests send straight into a
    fabric port) and feeds received frames to {!on_frame}. Reads are
    issued as commands of up to [max_read_sectors]; the target streams
    the response back as MTU-sized fragments which are reassembled by
    the tag/fragment-offset extension. Lost frames are recovered by
    re-sending the whole command after [timeout], with exponential
    backoff across retries (commands are idempotent). *)

type t

val create :
  Bmcast_engine.Sim.t ->
  send:(Aoe.header -> Bmcast_storage.Content.t array -> unit) ->
  ?owner:string ->
  ?mtu:int ->
  ?timeout:Bmcast_engine.Time.span ->
  ?max_read_sectors:int ->
  unit ->
  t
(** A client of AoE target 0.0 whose commands give up after 10
    retries. Defaults: MTU 9000, timeout 20 ms, 1024-sector read
    commands. [owner] is the owning machine's name; when
    set, command spans carry ["m"]/["stage"] args so
    [Bmcast_obs.Analytics] folds them into its per-operation table. *)

val on_frame : t -> Aoe.frame -> unit
(** Feed a received frame (responses to other tags are ignored, so
    multiple clients can share a pipe). *)

exception Timeout of string
(** Raised when a command exhausts its retries (and the escalation hook,
    if any, declines to keep it alive). *)

val set_escalation :
  t -> (attempts:int -> Aoe.header -> [ `Retry | `Fail ]) -> unit
(** Install the retry-escalation policy consulted each time a command
    exceeds [max_retries]: [`Retry] re-sends at the capped exponential
    backoff (so a recovered or failed-over target completes the request
    instead of a {!Timeout} reaching the guest I/O path); [`Fail]
    surfaces {!Timeout} as before. [attempts] counts sends so far for
    this command. Without a hook the historical raise-on-exhaustion
    behaviour is preserved. *)

val escalations : t -> int
(** Times the escalation hook answered [`Retry]. *)

val completions : t -> int
(** Commands that completed (successfully or with a target error).
    Together with {!pending_count} this gives the no-lost /
    no-double-completed accounting the fault invariants check. *)

val pending_count : t -> int
(** Commands currently awaiting a response. *)

exception Target_error of string
(** Raised when the target answers with the AoE error flag (e.g. an
    out-of-range request). *)

val read : t -> lba:int -> count:int -> Bmcast_storage.Content.t array
(** Blocking read into a fresh array (process context). *)

val read_into :
  t -> lba:int -> count:int -> Bmcast_storage.Content.t array -> pos:int -> unit
(** [read_into t ~lba ~count dst ~pos]: {!read} of the target's sectors
    [lba .. lba + count - 1] into [dst.(pos .. pos + count - 1)], where
    the response fragments land in place (process context). Raises
    [Invalid_argument] before any command if [count <= 0] or the window
    leaves [dst]. Nothing else may write the window while the read is
    in flight; on {!Timeout} or {!Target_error} it may hold part of the
    answer. *)

val write : t -> lba:int -> count:int -> Bmcast_storage.Content.t array -> unit
(** Blocking write (process context). *)

val query_capacity : t -> int
(** AoE Query-Config: the target's capacity in sectors (blocking,
    process context). *)

val retransmits : t -> int
val requests_sent : t -> int

val subscribe_mcast :
  t -> (lba:int -> count:int -> Bmcast_storage.Content.t array -> unit) -> unit
(** Install the handler for unsolicited multicast read data (responses
    tagged {!Aoe.mcast_tag}, which can never match a pending command).
    The data array is {e borrowed}: it is shared with every other group
    member, so the handler must copy what it keeps and must never
    release it to the scratch pool. Error or non-read multicast frames
    are dropped before the handler. *)

val mcast_frames : t -> int
(** Multicast data frames delivered to the subscription handler. *)
