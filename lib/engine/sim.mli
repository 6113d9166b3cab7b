(** Discrete-event simulation scheduler with effect-based processes.

    A simulation owns a virtual clock and an event queue. Code running
    "inside" the simulation is an ordinary OCaml function executed under an
    effect handler; it can block on virtual time ([sleep]), on external
    wake-ups ([suspend]), and spawn concurrent processes. Determinism is
    guaranteed: events at equal timestamps fire in scheduling order and all
    randomness comes from the simulation's seeded PRNG.

    {1 Driving a simulation (outside process context)} *)

type t

exception Process_failure of string * exn
(** Raised by [run] when a spawned process raises: carries the process name
    and the original exception. *)

val create :
  ?seed:int ->
  ?trace:Bmcast_obs.Trace.t ->
  ?metrics:Bmcast_obs.Metrics.t ->
  ?profile:Bmcast_obs.Profile.t ->
  ?timeseries:Bmcast_obs.Timeseries.t ->
  unit ->
  t
(** Fresh simulation with clock at {!Time.zero}. Default seed is 42.
    [trace] (default {!Bmcast_obs.Trace.null}) receives spans/events
    from instrumented subsystems with virtual-time stamps; the
    simulation installs its clock into it. [metrics] (default
    {!Bmcast_obs.Metrics.null}) is the registry subsystems register
    instruments into at attach time. [profile] (default
    {!Bmcast_obs.Profile.null}) is the allocation profiler subsystems
    scope non-blocking hot paths with. [timeseries] installs a
    recurring daemon job (see {!every}) that sweeps the sampler at its
    configured interval on the virtual clock, starting one interval in
    — sampling is part of the deterministic event order. *)

val now : t -> Time.t
val rand : t -> Prng.t

val trace : t -> Bmcast_obs.Trace.t
(** The tracer passed at {!create} ([Trace.null] otherwise). With a
    live tracer the scheduler records sleep spans, spawn/wake instants
    and periodic event-loop counters under category ["sim"]. *)

val metrics : t -> Bmcast_obs.Metrics.t

val profile : t -> Bmcast_obs.Profile.t
(** The allocation profiler passed at {!create} ([Profile.null]
    otherwise). Scopes must not cross a scheduling point — see
    {!Bmcast_obs.Profile}. *)

val schedule : t -> Time.t -> (unit -> unit) -> unit
(** [schedule sim at fn] runs callback [fn] at absolute time [at] (which
    must not be in the past). *)

val every : t -> ?daemon:bool -> Time.span -> (unit -> unit) -> unit -> unit
(** [every sim span fn] runs callback [fn] every [span] of virtual
    time, first one [span] from now. Returns a cancel thunk; cancelling
    turns the already-queued occurrence into a no-op. With [daemon] (the default) the recurrence never keeps
    {!run} alive — the run returns once only daemon events remain —
    so periodic samplers are safe in open-ended runs. [~daemon:false]
    gives an ordinary recurring event (with no [until], cancel it or
    the run never terminates).
    @raise Invalid_argument if [span <= 0]. *)

val spawn_at : t -> ?name:string -> Time.t -> (unit -> unit) -> unit
(** Start an effectful process at the given absolute time: {!start_at}
    of a {!process} built on the spot. Records nothing in the trace.
    @raise Invalid_argument if [at] is in the past. *)

(** {1 Prebuilt processes}

    A process started again and again (an interrupt service routine, a
    device's command executor) can be built once: its body, its name and
    the effect handler that runs it. Starting it then allocates nothing
    beyond the fiber it runs on. *)

type process

val process : t -> name:string -> (unit -> unit) -> process
(** [process sim ~name body] is a process that runs [body] each time it
    is started. It is not started yet. An exception [body] raises makes
    {!run} raise [Process_failure (name, e)]. *)

val start_at : process -> Time.t -> unit
(** Start the process at the given absolute time, recording nothing in
    the trace, as {!spawn_at} does. Each start runs the body on a fresh
    fiber, so starts may overlap: a process started again before its
    last run ended runs twice at once.
    @raise Invalid_argument if the time is in the past. *)

val run : ?until:Time.t -> t -> unit
(** Execute events until no non-daemon events remain or the clock
    passes [until]. Re-raises process failures as {!Process_failure}. *)

val events_executed : t -> int

val request_stop : t -> unit
(** Make the current (or next) [run] return after the event in progress;
    pending events stay queued. Callable from anywhere, including inside
    a process. *)

(** {1 Callback jobs}

    A job is the cheap form of a process whose loop ends every step in
    exactly one scheduling point: a preallocated, named callback that
    runs to completion and re-queues itself. Queueing one allocates
    nothing and costs no effect perform/resume. Each way of queueing it
    records what the matching process operation records, so converting
    such a loop to a job keeps its events, their order and its trace
    byte for byte. *)

type job

val job : t -> name:string -> (unit -> unit) -> job
(** [job sim ~name f] makes a job that runs [f] each time it is dequeued.
    It is not queued yet. [f] runs outside any process: it must not
    block or perform any other effect ([sleep], [park], [spawn],
    [clock], [self], ...). An exception [f] raises — including the
    [Effect.Unhandled] of a performed effect — makes {!run} raise
    [Process_failure (name, e)], as a failing process named [name]
    would. *)

val start_job : job -> unit
(** Queue the job at the current time, untraced: what {!spawn_at} at the
    current time records for a process's first step.
    @raise Invalid_argument if the job is already queued (this and the
    two below). *)

val wake_job : job -> unit
(** Queue the job at the current time: what waking a parked process
    records (a sampled ["sim"]/["wake"] instant). *)

val sleep_job : job -> Time.span -> unit
(** Queue the job after a delay (clamped at 0): what {!sleep} records
    (a sampled ["sim"]/["sleep"] span, closed when the job runs). *)

(** {1 Condition wait queues}

    A wait queue holds processes blocked until its predicate holds. It is
    the engine's one way to wait for a condition that many processes
    share. Blocked processes are admitted first in, first out. A woken
    process is re-checked without being resumed: only one whose
    predicate holds at its re-check runs past {!wait}. *)

type wait_queue

val wait_queue : t -> (unit -> bool) -> wait_queue
(** [wait_queue sim ready] is an empty queue whose predicate is
    [ready]. [ready] runs at {!wait} and at each re-check, outside any
    process: it must not block or perform any other effect. *)

val wake_all : wait_queue -> unit
(** Queue one re-check at the current time for each process parked on
    the queue, oldest first, recording for each what waking a parked
    process records (a sampled ["sim"]/["wake"] instant). A re-check
    resumes its process if the predicate holds and otherwise parks it
    again at the tail of the queue, recording nothing. A wake with
    nothing parked queues nothing and is not remembered. Callable from
    any context. *)

(** {1 Inside a process}

    The following must be called from within a process spawned on the
    running simulation; calling them elsewhere raises
    [Effect.Unhandled]. *)

val sleep : Time.span -> unit
(** Block the current process for a duration of virtual time. *)

val clock : unit -> Time.t
(** Current virtual time. *)

val yield : unit -> unit
(** Re-schedule at the current time behind already-queued events. *)

val suspend : (('a -> bool) -> unit) -> 'a
(** [suspend register] parks the current process. [register] receives a
    {e waker}: calling [waker v] resumes the process with value [v] and
    returns [true]; subsequent calls return [false] and do nothing. This
    makes racing wake-ups (e.g. completion vs. timeout) safe: first caller
    wins. *)

val park : ((unit -> bool) -> unit) -> unit
(** Value-free [suspend], tuned for the mailbox/latch hot path: the
    waker carries no payload (the sleeper re-checks its queue on resume,
    treating the wake as a hint), which lets the engine resume it
    through the same zero-alloc [Job_k] path as a sleep instead of a
    boxed value hand-off. Same first-caller-wins waker contract as
    [suspend]. *)

val wait : wait_queue -> unit
(** [wait q] returns at once if [q]'s predicate holds. Otherwise it
    parks the process at the tail of [q] until a re-check after
    {!wake_all} finds the predicate true; the predicate holds when
    [wait] returns. Parking allocates only the captured continuation,
    and a re-check that parks again allocates nothing. *)

val spawn : ?name:string -> (unit -> unit) -> unit
(** Start a sibling process at the current time. *)

val self : unit -> t
(** Ambient simulation handle (for [schedule], [rand], ...). *)

val wait_until : Time.t -> unit
(** Sleep until an absolute time (no-op if already past). *)
