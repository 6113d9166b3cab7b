module Trace = Bmcast_obs.Trace
module Metrics = Bmcast_obs.Metrics
module Profile = Bmcast_obs.Profile

(* Queued work, represented without wrapping everything in a closure:
   resuming a sleeping or suspended process stores its one-shot
   continuation (and wake value) directly in the event record, so the
   sleep/wake hot path allocates nothing beyond the continuation the
   effect handler already holds. [Job_fn] carries external callbacks
   ([schedule]), traced slow paths and the preallocated entry of a
   {!job}; [Job_proc] is the preallocated entry of a {!process}. *)
type event =
  | Job_fn of (unit -> unit)
  | Job_k : (unit, unit) Effect.Deep.continuation -> event
  | Job_kv : ('a, unit) Effect.Deep.continuation * 'a -> event
  | Job_proc of process
  | Job_daemon of (unit -> unit)

(* A process body with everything a start needs, built once: the effect
   handler that runs it (its [exnc] names the process in a failure) and
   the event that queues it. Each start still runs the body on a fresh
   fiber, so starts may overlap. *)
and process = {
  pname : string option;
  owner_ : t;
  body : unit -> unit;
  handler : (unit, unit) Effect.Deep.handler;
  mutable start : event;  (* [Job_proc] of this process, set once *)
}

and t = {
  mutable clock : Time.t;
  events : event Heap.t;
  prng : Prng.t;
  mutable executed : int;
  mutable failure : (string * exn) option;
  mutable stop_requested : bool;
  mutable daemons : int; (* queued Job_daemon events; see [run] *)
  trace_ : Trace.t;
  trace_sim : bool;
      (* [Trace.on trace_ ~cat:"sim"]: a tracer's filter never changes,
         so the hot paths test this instead of hashing "sim" each time *)
  metrics_ : Metrics.t;
  profile_ : Profile.t;
  mutable effs_ : effs option;
}

(* Hoisted effect handlers. A naive [effc] conjures a fresh closure (and
   its [Some] box) for every perform — ~10 minor words per [Sleep] on
   the hottest path in the simulator. These handlers are allocated once
   per simulator; effect payloads ride in the mutable cells, written by
   [effc] immediately before the runtime invokes the matching handler.
   That hand-off is safe because effects are handled synchronously on a
   single domain: nothing runs between [effc] returning and the handler
   consuming the cell. *)
and effs = {
  h_sleep : ((unit, unit) Effect.Deep.continuation -> unit) option;
  h_clock : ((Time.t, unit) Effect.Deep.continuation -> unit) option;
  h_park : ((unit, unit) Effect.Deep.continuation -> unit) option;
  h_wait : ((unit, unit) Effect.Deep.continuation -> unit) option;
  mutable spawn_name : string option;
  mutable spawn_body : unit -> unit;
  h_spawn : ((unit, unit) Effect.Deep.continuation -> unit) option;
  h_self : ((t, unit) Effect.Deep.continuation -> unit) option;
  effc :
    'a. 'a Effect.t -> (('a, unit) Effect.Deep.continuation -> unit) option;
      (* every process's [effc]: it reads only [sim] and these handlers *)
}

exception Process_failure of string * exn

(* The hottest effects are constant constructors: performing one
   allocates nothing for the effect value itself. Their payloads ride in
   the module-level cells below, written immediately before [perform] and
   read inside the (synchronously invoked) handler — safe on a single
   domain because nothing runs in between, even across nested sims. *)
type _ Effect.t +=
  | Sleep : unit Effect.t
  | Clock : Time.t Effect.t
  | Suspend : (('a -> bool) -> unit) -> 'a Effect.t
  | Park : unit Effect.t
  | Wait : unit Effect.t
  | Spawn : string option * (unit -> unit) -> unit Effect.t
  | Self : t Effect.t

let no_park (_ : unit -> bool) = ()
let sleep_cell : Time.span ref = ref 0
let park_cell : ((unit -> bool) -> unit) ref = ref no_park

(* [Wait]'s payload: the parked FIFO of the queue being waited on. *)
type waiters = (unit, unit) Effect.Deep.continuation Ring.t

let no_waiters : waiters = Ring.create ()
let wait_cell = ref no_waiters

let create_base ?(seed = 42) ?(trace = Trace.null) ?(metrics = Metrics.null)
    ?(profile = Profile.null) () =
  let sim =
    { clock = Time.zero;
      events = Heap.create ();
      prng = Prng.create seed;
      executed = 0;
      failure = None;
      stop_requested = false;
      daemons = 0;
      trace_ = trace;
      trace_sim = Trace.on trace ~cat:"sim";
      metrics_ = metrics;
      profile_ = profile;
      effs_ = None }
  in
  Trace.set_clock trace (fun () -> sim.clock);
  Metrics.derived metrics "sim.events" (fun () -> float_of_int sim.executed);
  Metrics.derived metrics "sim.pending" (fun () ->
      float_of_int (Heap.size sim.events));
  sim

let now sim = sim.clock
let rand sim = sim.prng
let events_executed sim = sim.executed
let trace sim = sim.trace_
let metrics sim = sim.metrics_
let profile sim = sim.profile_

(* Internal schedule: [at] is >= clock by construction at every call
   site (clock + nonnegative delay), so skip the past-time check. *)
let push_job sim at ev = Heap.push sim.events at ev

let check_not_past sim fn at =
  if at < sim.clock then
    invalid_arg
      (Printf.sprintf "Sim.%s: time %s is in the past (now %s)" fn
         (Time.to_string at) (Time.to_string sim.clock))

let schedule sim at fn =
  check_not_past sim "schedule" at;
  push_job sim at (Job_fn fn)

let push_daemon sim at fn =
  sim.daemons <- sim.daemons + 1;
  push_job sim at (Job_daemon fn)

(* Recurring callback every [span] of virtual time. Daemon jobs (the
   default) never keep the simulation alive: [run] stops once only
   daemon events remain, so a periodic sampler doesn't turn an
   open-ended [run] into an infinite loop. The returned thunk cancels
   the recurrence (the already-queued occurrence becomes a no-op). *)
let every sim ?(daemon = true) span fn =
  if span <= 0 then invalid_arg "Sim.every: period must be positive";
  let cancelled = ref false in
  let push = if daemon then push_daemon else fun sim at fn -> push_job sim at (Job_fn fn) in
  let rec arm at =
    push sim at (fun () ->
        if not !cancelled then begin
          fn ();
          arm (Time.add at span)
        end)
  in
  arm (Time.add sim.clock span);
  fun () -> cancelled := true

let create ?seed ?trace ?metrics ?profile ?timeseries () =
  let sim = create_base ?seed ?trace ?metrics ?profile () in
  (match timeseries with
  | None -> ()
  | Some ts ->
    let interval = Bmcast_obs.Timeseries.interval_ns ts in
    ignore
      (every sim interval (fun () ->
           Bmcast_obs.Timeseries.sample ts ~now:sim.clock)
        : unit -> unit));
  sim

let no_body () = ()

let fail sim pname e =
  if sim.failure = None then
    sim.failure <- Some (Option.value pname ~default:"<anonymous>", e)

let unstarted = Job_fn no_body

(* Not a [let rec]: a recursive record is built twice (a dummy, then
   the copy), which every spawn would pay. *)
let new_process sim effs pname body =
  let handler =
    { Effect.Deep.retc = ignore;
      exnc = (fun e -> fail sim pname e);
      effc = effs.effc }
  in
  let p = { pname; owner_ = sim; body; handler; start = unstarted } in
  p.start <- Job_proc p;
  p

(* The effect handler every process runs under, built once per
   simulation. The [Suspend] waker guards against double resume so that
   racing wake-up sources are safe. *)
let make_effs sim =
  let open Effect.Deep in
  let rec e =
    { h_sleep =
        Some
          (fun k ->
            let at = Time.add sim.clock (max !sleep_cell 0) in
            if sim.trace_sim && Trace.sample sim.trace_ ~cat:"sim" then begin
              let ts = sim.clock in
              push_job sim at
                (Job_fn
                   (fun () ->
                     Trace.complete sim.trace_ ~cat:"sim" "sleep" ~ts;
                     continue k ()))
            end
            else push_job sim at (Job_k k));
      h_clock = Some (fun k -> continue k sim.clock);
      h_park =
        Some
          (fun k ->
            let register = !park_cell in
            park_cell := no_park;
            (* The waker is single-shot {e by construction} of every
               registrar (park waiters are dequeued exactly once), so it
               carries no fired-guard — resuming a continuation twice
               would crash loudly anyway. *)
            register
              (fun () ->
                if sim.trace_sim && Trace.sample sim.trace_ ~cat:"sim" then
                  Trace.instant sim.trace_ ~cat:"sim" "wake";
                push_job sim sim.clock (Job_k k);
                true));
      h_wait =
        Some
          (fun k ->
            let parked = !wait_cell in
            wait_cell := no_waiters;
            Ring.push parked k);
      spawn_name = None;
      spawn_body = no_body;
      h_spawn =
        Some
          (fun k ->
            let child_name = e.spawn_name and body = e.spawn_body in
            e.spawn_name <- None;
            e.spawn_body <- no_body;
            if sim.trace_sim && Trace.sample sim.trace_ ~cat:"sim" then
              Trace.instant sim.trace_ ~cat:"sim"
                ~args:
                  [ ("proc", Trace.Str (Option.value child_name ~default:"?")) ]
                "spawn";
            push_job sim sim.clock (new_process sim e child_name body).start;
            continue k ());
      h_self = Some (fun k -> continue k sim);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Sleep -> (e.h_sleep : ((a, unit) continuation -> unit) option)
          | Clock -> e.h_clock
          | Suspend register ->
            Some
              (fun (k : (a, unit) continuation) ->
                let fired = ref false in
                let waker v =
                  if !fired then false
                  else begin
                    fired := true;
                    if sim.trace_sim && Trace.sample sim.trace_ ~cat:"sim" then
                      Trace.instant sim.trace_ ~cat:"sim" "wake";
                    push_job sim sim.clock (Job_kv (k, v));
                    true
                  end
                in
                register waker)
          | Park -> e.h_park
          | Wait -> e.h_wait
          | Spawn (child_name, body) ->
            e.spawn_name <- child_name;
            e.spawn_body <- body;
            e.h_spawn
          | Self -> e.h_self
          | _ -> None) }
  in
  e

let effs sim =
  match sim.effs_ with
  | Some e -> e
  | None ->
    let e = make_effs sim in
    sim.effs_ <- Some e;
    e

let run_job sim ev =
  match ev with
  | Job_fn f -> f ()
  | Job_k k -> Effect.Deep.continue k ()
  | Job_kv (k, v) -> Effect.Deep.continue k v
  | Job_proc p -> Effect.Deep.match_with p.body () p.handler
  | Job_daemon f ->
    sim.daemons <- sim.daemons - 1;
    f ()

let process sim ~name body = new_process sim (effs sim) (Some name) body

let start_at p at =
  check_not_past p.owner_ "start_at" at;
  push_job p.owner_ at p.start

let spawn_at sim ?name at f =
  check_not_past sim "spawn_at" at;
  push_job sim at (new_process sim (effs sim) name f).start

(* Callback jobs: a process loop whose every step ends in one
   scheduling point, rewritten as a preallocated callback that re-queues
   itself. Queueing one pushes its prebuilt [Job_fn] entry, so a step
   costs a heap push and a closure call instead of an effect
   perform/resume, and allocates nothing. Each entry point records what
   the matching process operation records, so a loop converted to a job
   keeps its event stream and its trace byte for byte. *)
type job = {
  owner : t;
  name : string;
  entry : event;  (* the [Job_fn] that runs this job *)
  mutable queued : bool;
  mutable slept_at : Time.t;  (* start of a sampled sleep span, or -1 *)
}

let run_callback j fn =
  let sim = j.owner in
  j.queued <- false;
  if j.slept_at >= 0 then begin
    Trace.complete sim.trace_ ~cat:"sim" "sleep" ~ts:j.slept_at;
    j.slept_at <- -1
  end;
  (* Outside any effect handler, a job that performs an effect raises
     [Effect.Unhandled] here and fails the run like a process would. *)
  try fn ()
  with e -> if sim.failure = None then sim.failure <- Some (j.name, e)

let job sim ~name fn =
  let rec j =
    { owner = sim;
      name;
      entry = Job_fn (fun () -> run_callback j fn);
      queued = false;
      slept_at = -1 }
  in
  j

(* A job is queued at most once at a time: [slept_at] belongs to the
   one pending run. *)
let claim j =
  if j.queued then
    invalid_arg (Printf.sprintf "Sim: job %s is already queued" j.name);
  j.queued <- true

let start_job j =
  claim j;
  push_job j.owner j.owner.clock j.entry

let wake_job j =
  let sim = j.owner in
  claim j;
  if sim.trace_sim && Trace.sample sim.trace_ ~cat:"sim" then
    Trace.instant sim.trace_ ~cat:"sim" "wake";
  push_job sim sim.clock j.entry

let sleep_job j d =
  let sim = j.owner in
  claim j;
  let at = Time.add sim.clock (max d 0) in
  if sim.trace_sim && Trace.sample sim.trace_ ~cat:"sim" then
    j.slept_at <- sim.clock;
  push_job sim at j.entry

(* Condition wait queues: processes blocked until a predicate holds (a
   socket buffer with room, an available core). A parked process costs
   only the continuation its [Wait] captured. [wake_all] moves every
   parked continuation to [woken] and pushes the queue's one prebuilt
   [recheck] entry once per continuation; entries pushed at one time run
   in push order, so the n-th to run takes the n-th woken continuation.
   The re-check resumes it if the predicate holds and otherwise parks it
   again at the tail, where the process's own second wait would have
   put it, without resuming it. *)
type wait_queue = {
  sim : t;
  ready : unit -> bool;
  parked : waiters;
  woken : waiters;
  recheck : event;
}

let recheck q =
  let k = Ring.pop q.woken in
  if q.ready () then Effect.Deep.continue k () else Ring.push q.parked k

let wait_queue sim ready =
  let parked = Ring.create () and woken = Ring.create () in
  let rec q =
    { sim; ready; parked; woken; recheck = Job_fn (fun () -> recheck q) }
  in
  q

(* Records what the wakers of [park] record: a sampled wake instant per
   process, nothing at park or re-park. *)
let wake_all q =
  let sim = q.sim in
  for _ = 1 to Ring.length q.parked do
    Ring.push q.woken (Ring.pop q.parked);
    if sim.trace_sim && Trace.sample sim.trace_ ~cat:"sim" then
      Trace.instant sim.trace_ ~cat:"sim" "wake";
    push_job sim sim.clock q.recheck
  done

let request_stop sim = sim.stop_requested <- true

let run ?until sim =
  sim.stop_requested <- false;
  let continue_run () =
    match sim.failure with
    | Some (pname, e) ->
      sim.failure <- None;
      raise (Process_failure (pname, e))
    | None -> true
  in
  let rec loop () =
    if continue_run () && not sim.stop_requested then begin
      let t = Heap.next_time sim.events in
      (* Daemon events (recurring samplers) never keep the run alive:
         once every queued event is a daemon, the simulation's real
         work is done and the run returns. *)
      if t <> Heap.no_time && Heap.size sim.events > sim.daemons
      then
        if match until with Some u -> t > u | None -> false then
          (* Do not execute past the horizon; park the clock at it. *)
          sim.clock <- Option.get until
        else begin
          sim.clock <- t;
          sim.executed <- sim.executed + 1;
          if sim.executed land 8191 = 0 && sim.trace_sim then begin
            Trace.counter sim.trace_ ~cat:"sim" "events_executed"
              (float_of_int sim.executed);
            Trace.counter sim.trace_ ~cat:"sim" "event_queue_depth"
              (float_of_int (Heap.size sim.events))
          end;
          run_job sim (Heap.pop_exn sim.events);
          loop ()
        end
    end
  in
  loop ()

(* Process-context operations. *)

let sleep d =
  sleep_cell := d;
  Effect.perform Sleep

let clock () = Effect.perform Clock

let yield () =
  sleep_cell := 0;
  Effect.perform Sleep

let suspend register = Effect.perform (Suspend register)

let park register =
  park_cell := register;
  Effect.perform Park

let wait q =
  if not (q.ready ()) then begin
    wait_cell := q.parked;
    Effect.perform Wait
  end

let spawn ?name f = Effect.perform (Spawn (name, f))
let self () = Effect.perform Self

let wait_until at =
  let t = clock () in
  if at > t then sleep (Time.diff at t)
