(** Deployment admission control for fleet provisioning.

    A scheduler admits concurrent machine deployments against a pool of
    storage servers. Capacity is [servers * limit_per_server] concurrent
    deployments; a submitted job past capacity queues (FIFO). On
    admission each job is leased to the least-loaded server — the pool
    only hands out a slot when some server has one free, so the lease
    never blocks a second time.

    On top of admission sit the start-time policies: release everything
    at once, in waves of [k] (the next wave starts when the previous one
    fully completes), or staggered by a fixed spacing. *)

type wave_policy =
  | All_at_once
  | Waves of int  (** batch size; next wave gated on the previous *)
  | Stagger of Bmcast_engine.Time.span  (** job [i] released at [i * span] *)

val wave_policy_to_string : wave_policy -> string

val wave_policy_of_string : string -> wave_policy option
(** ["all"], ["waves:<k>"], ["stagger:<ms>"]. *)

type job_stat = {
  name : string;
  server : int;  (** pool index of the admission lease *)
  submitted : Bmcast_engine.Time.t;
  started : Bmcast_engine.Time.t;  (** admission time *)
  finished : Bmcast_engine.Time.t;
}

val queue_delay_s : job_stat -> float

type t

val create :
  Bmcast_engine.Sim.t ->
  servers:int ->
  ?limit_per_server:int ->
  ?policy:wave_policy ->
  unit ->
  t
(** Defaults: 4 concurrent deployments per server, [All_at_once]. *)

val run : t -> (string * (int -> unit)) list -> job_stat list
(** [run t jobs] provisions every job under admission control and
    blocks until all complete (process context). Each job body receives
    the index of the server it was leased to. Stats come back in
    submission order. Raises [Invalid_argument] if called twice. *)

val peak_queue : t -> int
(** High-water mark of jobs waiting for admission. *)

val peak_in_service : t -> int

val admitted_per_server : t -> int array
