module Sim = Bmcast_engine.Sim
module Time = Bmcast_engine.Time
module Semaphore = Bmcast_engine.Semaphore
module Signal = Bmcast_engine.Signal
module Trace = Bmcast_obs.Trace
module Metrics = Bmcast_obs.Metrics

type wave_policy =
  | All_at_once
  | Waves of int
  | Stagger of Time.span

let wave_policy_to_string = function
  | All_at_once -> "all"
  | Waves k -> Printf.sprintf "waves:%d" k
  | Stagger d -> Printf.sprintf "stagger:%dms" (Time.to_float_ms d |> int_of_float)

let wave_policy_of_string = function
  | "all" -> Some All_at_once
  | s -> (
    match String.split_on_char ':' s with
    | [ "waves"; k ] -> (
      match int_of_string_opt k with
      | Some k when k > 0 -> Some (Waves k)
      | Some _ | None -> None)
    | [ "stagger"; ms ] -> (
      match int_of_string_opt ms with
      | Some ms when ms >= 0 -> Some (Stagger (Time.ms ms))
      | Some _ | None -> None)
    | _ -> None)

type job_stat = {
  name : string;
  server : int;
  submitted : Time.t;
  started : Time.t;
  finished : Time.t;
}

let queue_delay_s s = Time.to_float_s (Time.diff s.started s.submitted)

type t = {
  sim : Sim.t;
  servers : int;
  limit_per_server : int;
  policy : wave_policy;
  slots : Semaphore.t;  (* pool-wide capacity *)
  load : int array;  (* in-service leases per server *)
  mutable waiting : int;
  mutable in_service : int;
  mutable peak_queue : int;
  mutable peak_in_service : int;
  admitted : int array;
  mutable ran : bool;
  m_queue : float ref;
  m_in_service : float ref;
  m_admitted : float ref;
}

let create sim ~servers ?(limit_per_server = 4) ?(policy = All_at_once) () =
  if servers <= 0 then invalid_arg "Scheduler.create: servers must be positive";
  if limit_per_server <= 0 then
    invalid_arg "Scheduler.create: limit_per_server must be positive";
  { sim;
    servers;
    limit_per_server;
    policy;
    slots = Semaphore.create (servers * limit_per_server);
    load = Array.make servers 0;
    waiting = 0;
    in_service = 0;
    peak_queue = 0;
    peak_in_service = 0;
    admitted = Array.make servers 0;
    ran = false;
    m_queue = Metrics.gauge (Sim.metrics sim) "fleet.sched.queue_depth";
    m_in_service = Metrics.gauge (Sim.metrics sim) "fleet.sched.in_service";
    m_admitted = Metrics.counter (Sim.metrics sim) "fleet.sched.admitted" }

let peak_queue t = t.peak_queue
let peak_in_service t = t.peak_in_service
let admitted_per_server t = Array.copy t.admitted

(* The pool semaphore guarantees sum(free per-server slots) > 0 here, so
   the least-loaded server always has room. *)
let lease t =
  let best = ref 0 in
  for i = 1 to t.servers - 1 do
    if t.load.(i) < t.load.(!best) then best := i
  done;
  assert (t.load.(!best) < t.limit_per_server);
  t.load.(!best) <- t.load.(!best) + 1;
  t.admitted.(!best) <- t.admitted.(!best) + 1;
  !best

let run_one t ~name body =
  let submitted = Sim.clock () in
  t.waiting <- t.waiting + 1;
  t.peak_queue <- max t.peak_queue t.waiting;
  Metrics.set t.m_queue (float_of_int t.waiting);
  Semaphore.acquire t.slots;
  t.waiting <- t.waiting - 1;
  Metrics.set t.m_queue (float_of_int t.waiting);
  let server = lease t in
  t.in_service <- t.in_service + 1;
  t.peak_in_service <- max t.peak_in_service t.in_service;
  Metrics.incr t.m_admitted;
  Metrics.set t.m_in_service (float_of_int t.in_service);
  let started = Sim.clock () in
  let tr = Sim.trace t.sim in
  let traced = Trace.on tr ~cat:"fleet" in
  (* Boot-pipeline "queue" stage: admission wait, from submission to
     release. Job names are machine names by convention (Scaleout
     deploys "node%d" jobs), which is what lets [Analytics] stitch this
     span onto the same machine's vmm_init/discover/copy/devirt. *)
  if Trace.on tr ~cat:"boot" then
    Trace.complete tr ~cat:"boot"
      ~args:[ ("m", Trace.Str name) ]
      "queue" ~ts:submitted;
  Fun.protect
    ~finally:(fun () ->
      t.load.(server) <- t.load.(server) - 1;
      t.in_service <- t.in_service - 1;
      Metrics.set t.m_in_service (float_of_int t.in_service);
      Semaphore.release t.slots)
    (fun () -> body server);
  let finished = Sim.clock () in
  if traced then
    Trace.complete tr ~cat:"fleet"
      ~args:[ ("server", Trace.Int server); ("job", Trace.Str name) ]
      "deploy" ~ts:started;
  { name; server; submitted; started; finished }

let run t jobs =
  if t.ran then invalid_arg "Scheduler.run: scheduler already used";
  t.ran <- true;
  let n = List.length jobs in
  let results = Array.make n None in
  let done_count = ref 0 in
  let all_done = Signal.Latch.create () in
  let spawn_job idx (name, body) ~release =
    Sim.spawn ~name:(Printf.sprintf "sched-%s" name) (fun () ->
        Signal.Latch.wait release;
        let stat = run_one t ~name body in
        results.(idx) <- Some stat;
        incr done_count;
        if !done_count = n then Signal.Latch.set all_done)
  in
  let releases =
    List.mapi
      (fun idx job ->
        let release = Signal.Latch.create () in
        spawn_job idx job ~release;
        release)
      jobs
  in
  (match t.policy with
  | All_at_once -> List.iter Signal.Latch.set releases
  | Stagger span ->
    List.iteri
      (fun i release ->
        Sim.schedule t.sim
          (Time.add (Sim.clock ()) (Time.mul span i))
          (fun () -> Signal.Latch.set release))
      releases
  | Waves k ->
    (* Release wave w when every job of wave w-1 has finished. We watch
       completion via [done_count] from a pacer process. *)
    let releases = Array.of_list releases in
    Sim.spawn ~name:"sched-waves" (fun () ->
        let rec wave start =
          if start < n then begin
            let stop = min n (start + k) in
            for i = start to stop - 1 do
              Signal.Latch.set releases.(i)
            done;
            (* Poll completion cheaply on the virtual clock. *)
            while !done_count < stop do
              Sim.sleep (Time.ms 50)
            done;
            wave stop
          end
        in
        wave 0));
  Signal.Latch.wait all_done;
  Array.to_list results |> List.map Option.get
