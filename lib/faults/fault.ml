module Sim = Bmcast_engine.Sim
module Time = Bmcast_engine.Time
module Prng = Bmcast_engine.Prng
module Signal = Bmcast_engine.Signal
module Fabric = Bmcast_net.Fabric
module Disk = Bmcast_storage.Disk
module Content = Bmcast_storage.Content
module Vblade = Bmcast_proto.Vblade
module Aoe_client = Bmcast_proto.Aoe_client
module Vmm = Bmcast_core.Vmm
module Bitmap = Bmcast_core.Bitmap
module Obs_trace = Bmcast_obs.Trace
module Metrics = Bmcast_obs.Metrics

type rig = {
  sim : Sim.t;
  fabric : Fabric.t;
  server : Vblade.t;
  server_disk : Disk.t;
}

type action =
  | Set_loss of Fabric.loss_model
  | Clear_loss
  | Server_crash
  | Server_restart
  | Server_link_down
  | Server_link_up
  | Server_nic_stall of Time.span
  | Link_down of int
  | Link_up of int
  | Nic_stall of int * Time.span
  | Disk_read_errors of { lba : int; count : int; times : int }
  | Disk_latency_spike of { extra : Time.span; duration : Time.span }

type event = { after : Time.span; action : action }
type plan = event list

let describe = function
  | Set_loss (Fabric.Uniform p) -> Printf.sprintf "loss: uniform p=%.3f" p
  | Set_loss (Fabric.Gilbert { p_enter_bad; p_exit_bad; loss_good; loss_bad })
    ->
    Printf.sprintf "loss: gilbert enter=%.3f exit=%.3f good=%.3f bad=%.3f"
      p_enter_bad p_exit_bad loss_good loss_bad
  | Clear_loss -> "loss: cleared"
  | Server_crash -> "server: crash"
  | Server_restart -> "server: restart"
  | Server_link_down -> "server link: down"
  | Server_link_up -> "server link: up"
  | Server_nic_stall d ->
    Printf.sprintf "server nic: stalled %s" (Time.to_string d)
  | Link_down p -> Printf.sprintf "port %d link: down" p
  | Link_up p -> Printf.sprintf "port %d link: up" p
  | Nic_stall (p, d) ->
    Printf.sprintf "port %d nic: stalled %s" p (Time.to_string d)
  | Disk_read_errors { lba; count; times } ->
    Printf.sprintf "server disk: %d transient read errors armed on [%d,%d)"
      times lba (lba + count)
  | Disk_latency_spike { extra; duration } ->
    Printf.sprintf "server disk: +%s latency for %s" (Time.to_string extra)
      (Time.to_string duration)

let apply rig = function
  | Set_loss m -> Fabric.set_loss_model rig.fabric m
  | Clear_loss -> Fabric.set_loss_model rig.fabric (Fabric.Uniform 0.0)
  | Server_crash -> Vblade.crash rig.server
  | Server_restart -> Vblade.restart rig.server
  | Server_link_down -> Fabric.set_link_up (Vblade.port rig.server) false
  | Server_link_up -> Fabric.set_link_up (Vblade.port rig.server) true
  | Server_nic_stall d -> Fabric.stall (Vblade.port rig.server) d
  | Link_down p -> Fabric.set_link_up (Fabric.port_of_id rig.fabric p) false
  | Link_up p -> Fabric.set_link_up (Fabric.port_of_id rig.fabric p) true
  | Nic_stall (p, d) -> Fabric.stall (Fabric.port_of_id rig.fabric p) d
  | Disk_read_errors { lba; count; times } ->
    Disk.inject_read_errors rig.server_disk ~lba ~count ~times
  | Disk_latency_spike { extra; duration } ->
    Disk.set_latency_spike rig.server_disk ~extra
      ~until:(Time.add (Sim.now rig.sim) duration)

type injector = {
  rig : rig;
  mutable trace_rev : (Time.t * string) list;
  finished : Signal.Latch.t;
}

let inject rig (plan : plan) =
  let inj = { rig; trace_rev = []; finished = Signal.Latch.create () } in
  let events =
    List.stable_sort (fun a b -> compare a.after b.after) plan
  in
  let t0 = Sim.now rig.sim in
  let injected = Metrics.counter (Sim.metrics rig.sim) "faults.injected" in
  Sim.spawn_at rig.sim ~name:"fault-injector" t0 (fun () ->
      List.iter
        (fun ev ->
          Sim.wait_until (Time.add t0 ev.after);
          apply rig ev.action;
          Metrics.incr injected;
          let tr = Sim.trace rig.sim in
          if Obs_trace.on tr ~cat:"faults" then
            Obs_trace.complete tr ~cat:"faults" (describe ev.action)
              ~ts:(Sim.now rig.sim);
          inj.trace_rev <- (Sim.now rig.sim, describe ev.action) :: inj.trace_rev)
        events;
      Signal.Latch.set inj.finished);
  inj

let trace inj = List.rev inj.trace_rev
let wait_done inj = Signal.Latch.wait inj.finished

let trace_to_string tr =
  String.concat "\n"
    (List.map (fun (at, what) -> Time.to_string at ^ " " ^ what) tr)

(* {2 Named scenarios} *)

(* Timings assume the default parameter set (VMM boot at 3.5 s, so
   deployment — and the background copy — runs from ~3.5 s onwards). *)
let scenario ~image_sectors name : plan option =
  let at s action = { after = Time.ms (int_of_float (s *. 1000.)); action } in
  match name with
  | "burst-loss" ->
    Some
      [ at 4.0
          (Set_loss
             (Fabric.Gilbert
                { p_enter_bad = 0.02;
                  p_exit_bad = 0.2;
                  loss_good = 0.001;
                  loss_bad = 0.7 }));
        at 7.0 Clear_loss ]
  | "server-crash-boot" ->
    (* Dies just as deployment starts: the guest's very first
       copy-on-read requests find no server. *)
    Some [ at 3.6 Server_crash; at 4.4 Server_restart ]
  | "crash-mid-copy" ->
    (* The acceptance scenario: crash at t=5 s in the middle of the
       background copy, restart at t=8 s. *)
    Some [ at 5.0 Server_crash; at 8.0 Server_restart ]
  | "disk-errors" ->
    (* Target the tail of the image: the retriever prefetches several
       chunks ahead of the writer, so early LBAs may already be read
       before the faults are armed. *)
    Some
      [ at 4.0
          (Disk_read_errors
             { lba = image_sectors * 4 / 5; count = 128; times = 3 });
        at 4.5
          (Disk_read_errors
             { lba = image_sectors * 9 / 10; count = 64; times = 2 })
      ]
  | "link-flap" ->
    Some
      [ at 4.5 Server_link_down;
        at 5.0 Server_link_up;
        at 5.5 Server_link_down;
        at 6.0 Server_link_up ]
  | "nic-stall" ->
    Some
      [ at 4.2 (Server_nic_stall (Time.ms 300));
        at 5.0 (Server_nic_stall (Time.ms 500)) ]
  | "latency-spike" ->
    Some
      [ at 4.0 (Disk_latency_spike { extra = Time.ms 40; duration = Time.s 2 })
      ]
  | _ -> None

let scenario_names =
  [ "burst-loss";
    "server-crash-boot";
    "crash-mid-copy";
    "disk-errors";
    "link-flap";
    "nic-stall";
    "latency-spike" ]

(* {2 Random plans}

   Every fault is recoverable and every recovery lands inside the
   [active] window, so a run that keeps going past [active] faces a
   fault-free system and must converge. *)
let random_plan ~seed ~active ~image_sectors : plan =
  let prng = Prng.create seed in
  let episodes = 2 + Prng.int prng 3 in
  let plan = ref [] in
  let push after action = plan := { after; action } :: !plan in
  for _ = 1 to episodes do
    (* Faults start in the first 3/4 of the window; each recovery fires
       within the window. *)
    let start = Prng.int prng (max 1 (active * 3 / 4)) in
    let dur = (active / 20) + Prng.int prng (max 1 (active / 4)) in
    let stop = min (start + dur) active in
    match Prng.int prng 7 with
    | 0 ->
      push start (Set_loss (Fabric.Uniform (0.05 +. Prng.float prng 0.3)));
      push stop Clear_loss
    | 1 ->
      push start
        (Set_loss
           (Fabric.Gilbert
              { p_enter_bad = 0.01 +. Prng.float prng 0.05;
                p_exit_bad = 0.1 +. Prng.float prng 0.3;
                loss_good = Prng.float prng 0.01;
                loss_bad = 0.4 +. Prng.float prng 0.5 }));
      push stop Clear_loss
    | 2 ->
      push start Server_crash;
      push stop Server_restart
    | 3 ->
      push start Server_link_down;
      push stop Server_link_up
    | 4 ->
      let lba = Prng.int prng (max 1 image_sectors) in
      let count = 1 + Prng.int prng 128 in
      let times = 1 + Prng.int prng 3 in
      push start (Disk_read_errors { lba; count; times })
    | 5 -> push start (Server_nic_stall (min dur (active / 4)))
    | _ ->
      push start
        (Disk_latency_spike
           { extra = Time.ms (5 + Prng.int prng 45);
             duration = min dur (active / 2) })
  done;
  List.rev !plan

(* {2 Invariants} *)

module Invariants = struct
  type check = { name : string; ok : bool; detail : string }

  let make name ok detail = { name; ok; detail }

  let disk_matches_image ?(overrides = []) ~image_sectors disk =
    let expected lba =
      match List.assoc_opt lba overrides with
      | Some c -> c
      | None -> Content.image lba
    in
    let bad = ref 0 in
    let first_bad = ref (-1) in
    for lba = 0 to image_sectors - 1 do
      if not (Content.equal (Disk.sector disk lba) (expected lba)) then begin
        incr bad;
        if !first_bad < 0 then first_bad := lba
      end
    done;
    make "disk-matches-image" (!bad = 0)
      (if !bad = 0 then
         Printf.sprintf "all %d image sectors byte-identical" image_sectors
       else Printf.sprintf "%d sectors differ (first: lba %d)" !bad !first_bad)

  let copy_converged vmm =
    let bm = Vmm.bitmap vmm in
    make "background-copy-converged"
      (Bitmap.is_complete bm)
      (Printf.sprintf "%d/%d sectors filled" (Bitmap.filled_count bm)
         (Bitmap.sectors bm))

  let devirtualized_once vmm =
    let n =
      List.length
        (List.filter (fun (_, what) -> what = "de-virtualized") (Vmm.events vmm))
    in
    make "devirtualized-exactly-once"
      (n = 1 && Vmm.devirtualized_at vmm <> None)
      (Printf.sprintf "%d de-virtualization event(s)" n)

  let no_requests_outstanding vmm =
    let c = Vmm.aoe_client vmm in
    let pending = Aoe_client.pending_count c in
    let sent = Aoe_client.requests_sent c in
    let completed = Aoe_client.completions c in
    make "no-request-lost-or-double-completed"
      (pending = 0 && completed <= sent)
      (Printf.sprintf "%d pending, %d completed of %d sent" pending completed
         sent)

  let all ?overrides ~image_sectors ~disk vmm =
    [ disk_matches_image ?overrides ~image_sectors disk;
      copy_converged vmm;
      devirtualized_once vmm;
      no_requests_outstanding vmm ]

  let failures checks = List.filter (fun c -> not c.ok) checks

  let report checks =
    String.concat "\n"
      (List.map
         (fun c ->
           Printf.sprintf "[%s] %s: %s"
             (if c.ok then "ok" else "FAIL")
             c.name c.detail)
         checks)
end
