module Sim = Bmcast_engine.Sim
module Time = Bmcast_engine.Time
module Prng = Bmcast_engine.Prng
module Mailbox = Bmcast_engine.Mailbox
module Signal = Bmcast_engine.Signal
module Content = Bmcast_storage.Content
module Trace = Bmcast_obs.Trace
module Metrics = Bmcast_obs.Metrics

type ops = {
  fetch : lba:int -> count:int -> Content.t array -> unit;
  write_empty : lba:int -> count:int -> Content.t array -> int;
  guest_io_rate : unit -> float;
  redirect_active : unit -> bool;
  guest_last_lba : unit -> int option;
}

(* A fetched chunk: its sectors are [data.(0 .. count - 1)] of a
   [Content.Scratch] array, which the writer releases once written. *)
type chunk = { lba : int; count : int; data : Content.t array }

type t = {
  sim : Sim.t;
  params : Params.t;
  owner : string option;  (* machine name, for analytics span tags *)
  bitmap : Bitmap.t;
  ops : ops;
  fifo : chunk Mailbox.t;
  complete : Signal.Latch.t;
  mutable cursor : int;
  mutable last_seen_guest : int option;
  prng : Prng.t;
  mutable in_flight : (int * int) list;
      (** fetched but not yet written; the retriever must not re-fetch
          these after a locality cursor jump *)
  mutable bytes_written : int;
  mutable suspended : int;
  mutable stopped : bool;
  mutable paused : bool;
  mutable fetch_failures : int;
  mutable consecutive_fetch_failures : int;
  mutable completed_at : Time.t option;
  copy_rate : Bmcast_obs.Stats.Rate.t;
  m_active : float ref;
  m_done : float ref;
}

(* The bitmap covers exactly the image region (see [start]), so every
   run it returns lies inside the image. *)
let image_complete t = Bitmap.is_complete t.bitmap

let overlaps_in_flight t ~lba ~count =
  List.find_opt
    (fun (fl, fc) -> fl < lba + count && lba < fl + fc)
    t.in_flight

(* Next empty run that is not already sitting in the FIFO. *)
let rec find_fetchable t ~from ~attempts =
  if attempts = 0 then None
  else
    match
      Bitmap.find_empty_run t.bitmap ~from ~max:t.params.Params.chunk_sectors
    with
    | None -> None
    | Some (lba, count) -> (
      match overlaps_in_flight t ~lba ~count with
      | None -> Some (lba, count)
      | Some (fl, fc) -> find_fetchable t ~from:(fl + fc) ~attempts:(attempts - 1))

(* Transport faults the retriever must absorb rather than crash on: a
   timed-out fetch (server down, sustained loss) or a target-side error.
   Anything else is a programming error and still propagates. *)
let transient_fetch_error = function
  | Bmcast_proto.Aoe_client.Timeout _ | Bmcast_proto.Aoe_client.Target_error _
    ->
    true
  | _ -> false

(* Exponential backoff for fetch retries, capped at 1 s of virtual time
   so recovery after a long outage is prompt. *)
let fetch_backoff t =
  let base = max t.params.Params.write_interval (Time.ms 1) in
  let span = Time.mul base (1 lsl min t.consecutive_fetch_failures 6) in
  min span (Time.s 1)

(* Machine + stage tags route chunk spans into the per-operation table
   of [Bmcast_obs.Analytics]. *)
let tagged t args =
  match t.owner with
  | Some m -> ("m", Trace.Str m) :: ("stage", Trace.Str "copy") :: args
  | None -> args

let rec retriever t =
  (* The completion check inside the pause loop matters: something else
     (multicast fill, the guest itself) can finish the image while we
     are paused, and [wait_complete] must still fire. *)
  while t.paused && (not t.stopped) && not (image_complete t) do
    Sim.sleep t.params.Params.suspend_interval
  done;
  if t.stopped then ()
  else if not (image_complete t) then begin
    (* Locality: if the guest touched the disk since we last looked,
       resume next to its access to minimize seeking. *)
    (match t.ops.guest_last_lba () with
    | Some lba
      when Some lba <> t.last_seen_guest && lba < t.params.Params.image_sectors
      ->
      t.last_seen_guest <- Some lba;
      t.cursor <- lba
    | Some _ | None -> ());
    match find_fetchable t ~from:t.cursor ~attempts:16 with
    | None ->
      if image_complete t then finish t
      else begin
        (* Everything empty is already in flight; let the writer
           drain. *)
        Sim.sleep t.params.Params.write_interval;
        retriever t
      end
    | Some (lba, count) ->
      t.in_flight <- (lba, count) :: t.in_flight;
      let tr = Sim.trace t.sim in
      let traced = Trace.on tr ~cat:"bgcopy" in
      let fetch_started = Sim.now t.sim in
      let data = Content.Scratch.alloc count in
      (match t.ops.fetch ~lba ~count data with
      | () ->
        if traced then
          Trace.complete tr ~cat:"bgcopy"
            ~args:(tagged t [ ("lba", Trace.Int lba); ("count", Trace.Int count) ])
            "fetch" ~ts:fetch_started;
        t.consecutive_fetch_failures <- 0;
        t.cursor <- lba + count;
        Mailbox.send t.fifo { lba; count; data };
        retriever t
      | exception e ->
        (* A timed-out or rejected read has left the client's table, so
           no late fragment can land in [data]. *)
        if transient_fetch_error e then Content.Scratch.release data;
        (* A VMM shutdown tears the transport down under us; a transport
           timeout or target error is a fault to ride out — back off
           (exponentially, so sustained target loss quiesces the
           retriever) and retry the same range; progress so far (bitmap,
           cursor) is preserved. Anything else is a real failure. *)
        t.in_flight <-
          List.filter (fun (fl, fc) -> not (fl = lba && fc = count)) t.in_flight;
        if t.stopped then ()
        else if transient_fetch_error e then begin
          t.fetch_failures <- t.fetch_failures + 1;
          t.consecutive_fetch_failures <- t.consecutive_fetch_failures + 1;
          if traced then
            Trace.instant tr ~cat:"bgcopy"
              ~args:
                [ ("lba", Trace.Int lba);
                  ("consecutive",
                   Trace.Int t.consecutive_fetch_failures) ]
              "fetch-error";
          Sim.sleep (fetch_backoff t);
          retriever t
        end
        else raise e)
  end
  else finish t

and finish t =
  if t.completed_at = None then begin
    t.completed_at <- Some (Sim.now t.sim);
    Metrics.incr ~by:(-1.0) t.m_active;
    Metrics.incr t.m_done;
    Signal.Latch.set t.complete
  end

let rec writer t =
  if t.stopped then ()
  else if not (image_complete t) then begin
    let chunk = Mailbox.recv t.fifo in
    (* Moderation: back off while the guest is busy with the disk, with
       hysteresis — once suspended, stay suspended until the rate drops
       well below the threshold, so a bursty guest stream does not let
       writes slip into its short gaps. *)
    let busy () =
      t.ops.guest_io_rate () > t.params.Params.guest_io_threshold
      || t.ops.redirect_active ()
    in
    let still_busy () =
      t.ops.guest_io_rate () > t.params.Params.guest_io_threshold /. 2.0
      || t.ops.redirect_active ()
    in
    let tr = Sim.trace t.sim in
    let traced = Trace.on tr ~cat:"bgcopy" in
    if busy () then begin
      t.suspended <- t.suspended + 1;
      if traced then
        Trace.instant tr ~cat:"bgcopy"
          ~args:[ ("guest-io-rate", Trace.Float (t.ops.guest_io_rate ())) ]
          "moderation-suspend";
      while still_busy () do
        Sim.sleep t.params.Params.suspend_interval
      done;
      if traced then
        Trace.instant tr ~cat:"bgcopy"
          ~args:[ ("guest-io-rate", Trace.Float (t.ops.guest_io_rate ())) ]
          "moderation-resume"
    end;
    (* Timer jitter (+-12%) keeps the writer from phase-locking with
       periodic guest I/O. *)
    let interval = t.params.Params.write_interval in
    let jitter =
      if interval > 0 then
        Prng.int_in t.prng (-interval / 8) (interval / 8)
      else 0
    in
    Sim.sleep (max 0 (interval + jitter));
    (* The mediator re-checks emptiness while holding the device, so
       anything the guest filled since the fetch is skipped
       atomically. *)
    let write_started = Sim.now t.sim in
    let written =
      t.ops.write_empty ~lba:chunk.lba ~count:chunk.count chunk.data
    in
    Content.Scratch.release chunk.data;
    t.bytes_written <- t.bytes_written + (written * 512);
    Bmcast_obs.Stats.Rate.add t.copy_rate (Sim.now t.sim)
      (float_of_int (written * 512));
    if traced then
      Trace.complete tr ~cat:"bgcopy"
        ~args:
          (tagged t
             [ ("lba", Trace.Int chunk.lba);
               ("written-sectors", Trace.Int written) ])
        "write-chunk" ~ts:write_started;
    t.in_flight <-
      List.filter
        (fun (fl, fc) -> not (fl = chunk.lba && fc = chunk.count))
        t.in_flight;
    if image_complete t then finish t else writer t
  end
  else finish t

(* Filled fraction of the image. The gauge below closes over the bitmap
   alone: the metrics registry lives as long as the run, and [t] reaches
   the mediator and the AoE client through [ops]. *)
let progress bitmap () =
  Float.min 1.0
    (float_of_int (Bitmap.filled_count bitmap)
    /. float_of_int (Bitmap.sectors bitmap))

let start sim ~params ~bitmap ~ops ?owner () =
  if Bitmap.sectors bitmap <> params.Params.image_sectors then
    invalid_arg "Background_copy.start: bitmap does not cover the image";
  let t =
    { sim;
      params;
      owner;
      bitmap;
      ops;
      fifo = Mailbox.create ~capacity:8 ();
      complete = Signal.Latch.create ();
      cursor = 0;
      last_seen_guest = None;
      prng = Prng.split (Sim.rand sim);
      in_flight = [];
      bytes_written = 0;
      suspended = 0;
      stopped = false;
      paused = false;
      fetch_failures = 0;
      consecutive_fetch_failures = 0;
      completed_at = None;
      copy_rate = Metrics.rate (Sim.metrics sim) "copy.bytes";
      m_active = Metrics.gauge (Sim.metrics sim) "copy.active";
      m_done = Metrics.counter (Sim.metrics sim) "copy.done" }
  in
  Metrics.incr t.m_active;
  (* Per-machine progress fraction for the dashboard/autoscaler, named
     by owner so fleet runs get one series per deploying machine. *)
  (match owner with
  | Some m ->
    Metrics.derived (Sim.metrics sim)
      ~labels:[ ("m", m) ]
      "copy.progress" (progress bitmap)
  | None -> ());
  Sim.spawn_at sim ~name:"bgcopy-retriever" (Sim.now sim) (fun () -> retriever t);
  Sim.spawn_at sim ~name:"bgcopy-writer" (Sim.now sim) (fun () -> writer t);
  t

let stop t = t.stopped <- true

(* Operator pause: the retriever stops fetching after its current chunk;
   the writer drains what is already in the FIFO, then idles on it. *)
let pause t = t.paused <- true
let resume t = t.paused <- false
let is_paused t = t.paused
let fetch_failures t = t.fetch_failures

let wait_complete t = Signal.Latch.wait t.complete
let bytes_written t = t.bytes_written
let chunks_suspended t = t.suspended
