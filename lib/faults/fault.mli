(** Deterministic fault injection for the copy-on-read pipeline.

    A {e fault plan} is a declarative list of timed events scheduled on
    the simulation clock by {!inject}. Because the DES is deterministic
    and every random choice (loss rolls, {!random_plan} generation)
    draws from a seeded PRNG, the same seed and plan always reproduce
    the same event trace — chaos runs are replayable bug reports.

    The hook points live in the subsystems themselves:
    {!Bmcast_net.Fabric} (loss models, link state, NIC stalls),
    {!Bmcast_proto.Vblade} (crash / restart with epoch-guarded
    responses), {!Bmcast_storage.Disk} (transient read errors, latency
    spikes), {!Bmcast_proto.Aoe_client} (retry escalation) and
    {!Bmcast_core.Background_copy} (fetch backoff, pause / resume).
    This module only sequences them and checks the end-to-end
    {!Invariants}. *)

(** The injectable surface of a deployment set-up. *)
type rig = {
  sim : Bmcast_engine.Sim.t;
  fabric : Bmcast_net.Fabric.t;
  server : Bmcast_proto.Vblade.t;
  server_disk : Bmcast_storage.Disk.t;
}

type action =
  | Set_loss of Bmcast_net.Fabric.loss_model
  | Clear_loss
  | Server_crash
  | Server_restart
  | Server_link_down
  | Server_link_up
  | Server_nic_stall of Bmcast_engine.Time.span
  | Link_down of int  (** by fabric port id *)
  | Link_up of int
  | Nic_stall of int * Bmcast_engine.Time.span
  | Disk_read_errors of { lba : int; count : int; times : int }
  | Disk_latency_spike of {
      extra : Bmcast_engine.Time.span;
      duration : Bmcast_engine.Time.span;
    }

type event = { after : Bmcast_engine.Time.span; action : action }
(** [after] is relative to the time {!inject} is called. *)

type plan = event list

(** A running injector: applies a plan's events in time order and
    records what it did. *)
type injector

val inject : rig -> plan -> injector
(** Spawn the injector process; events fire at [inject-time + after] in
    ascending order (stable for equal times). Callable from outside or
    inside process context. *)

val trace : injector -> (Bmcast_engine.Time.t * string) list
(** Applied events, oldest first: the deterministic signature of a
    chaos run. *)

val wait_done : injector -> unit
(** Block until every event of the plan has been applied (process
    context). *)

val trace_to_string : (Bmcast_engine.Time.t * string) list -> string

(** {2 Named scenarios}

    Timings assume the default {!Bmcast_core.Params.t} (VMM boot takes
    3.5 s, so deployment traffic runs from ~3.5 s on). *)

val scenario : image_sectors:int -> string -> plan option
(** ["burst-loss"], ["server-crash-boot"], ["crash-mid-copy"] (the
    acceptance scenario: server dies at t=5 s during the background
    copy, returns at t=8 s), ["disk-errors"], ["link-flap"],
    ["nic-stall"], ["latency-spike"]. [None] for unknown names. *)

val scenario_names : string list

val random_plan :
  seed:int -> active:Bmcast_engine.Time.span -> image_sectors:int -> plan
(** Seeded random plan of 2–4 fault episodes. Every fault is
    recoverable and every recovery (restart, link-up, loss cleared)
    fires within [active], so any run continuing past [active] faces a
    fault-free system and must converge. Same seed, same plan. *)

(** {2 End-to-end invariants}

    The properties BMcast's correctness story rests on (§3.1/§3.3),
    checked after a deployment ran to de-virtualization under faults. *)

module Invariants : sig
  type check = { name : string; ok : bool; detail : string }

  val all :
    ?overrides:(int * Bmcast_storage.Content.t) list ->
    image_sectors:int ->
    disk:Bmcast_storage.Disk.t ->
    Bmcast_core.Vmm.t ->
    check list
  (** The four checks, in order:
      - every image sector of the local disk equals the golden image —
        except [overrides], the sectors the guest wrote (which must
        hold exactly the guest's data, never a late background-copy
        fill);
      - the fill bitmap is complete: the background copy converged
        once faults cleared;
      - exactly one "de-virtualized" lifecycle event was logged;
      - the AoE client's pending table is empty (no request lost) and
        completions never exceed sends (no request double-completed). *)

  val failures : check list -> check list
  val report : check list -> string
end
