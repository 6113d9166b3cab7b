(** Deterministic tracing of simulation runs.

    A tracer records spans, instant events and counter samples with
    {e virtual-time} timestamps (integer nanoseconds, compatible with
    [Bmcast_engine.Time.t]) into a bounded in-memory ring, and exports
    them as a Chrome [trace_event] JSON file (open in Perfetto /
    [chrome://tracing]) or as JSONL.

    Determinism contract: the tracer never reads wall clocks and its
    output depends only on the recorded event stream, so a seeded
    simulation produces byte-identical exports on every run. Recording
    takes zero virtual time and must never change simulation behaviour;
    the disabled tracer ({!null}) records nothing and allocates nothing
    when call sites guard with {!on}. *)

type value = Int of int | Float of float | Str of string | Bool of bool

type args = (string * value) list

type phase = P_span | P_instant | P_counter

type event = {
  phase : phase;
  cat : string;
  name : string;
  ts : int;  (** virtual ns; for spans, the start time *)
  dur : int;  (** spans only; virtual ns *)
  value : float;  (** counters only *)
  args : args;
}

type t

val null : t
(** The disabled tracer: every operation is a no-op. This is the
    tracer a simulation carries unless one is attached explicitly. *)

val create :
  ?capacity:int -> ?categories:string list -> ?sample_every:int -> unit -> t
(** A live tracer. [capacity] bounds the ring (default [2^20] events;
    once full, the oldest events are overwritten and counted in
    {!dropped}). [categories] restricts recording to the listed
    categories; omitted means record everything. [sample_every]
    (default 1 = record everything) downsamples hot-path call sites
    that guard with {!sample}: only every Nth such event is recorded.
    Sampling is counter-based, so it is deterministic and exports stay
    byte-identical across same-seed runs. *)

val enabled : t -> bool

val set_clock : t -> (unit -> int) -> unit
(** Install the virtual clock (done by [Sim.create]). No-op on
    {!null}. *)

val on : t -> cat:string -> bool
(** [on t ~cat] is [true] when events of category [cat] would be
    recorded. Hot paths should guard with this before building
    argument lists — the guard itself allocates nothing. *)

val sample : t -> cat:string -> bool
(** Like {!on}, but additionally downsampled: at most one [true] per
    [sample_every] calls (for the enabled category). Use on per-event
    hot paths (scheduler sleeps, per-chunk I/O) so tracing at fleet
    scale records a deterministic 1-in-N subset instead of drowning
    the ring. With the default [sample_every = 1] this is exactly
    {!on}. Each [true] consumes a tick, so call it once per event and
    reuse the result. *)

val span : t -> cat:string -> ?args:(unit -> args) -> string -> (unit -> 'a) -> 'a
(** [span t ~cat name f] runs [f] and records a complete span covering
    its virtual-time extent (also on exception). [args] is only
    evaluated when the event is recorded. *)

val complete : t -> cat:string -> ?args:args -> string -> ts:int -> unit
(** [complete t ~cat name ~ts] records a span that began at virtual
    time [ts] and ends now — for spans whose end is observed in a
    different process than their start. *)

val instant : t -> cat:string -> ?args:args -> string -> unit

val counter : t -> cat:string -> string -> float -> unit
(** Counter sample; rendered as a value track in Perfetto. *)

val event_count : t -> int
(** Events currently held in the ring. *)

val iter : t -> (event -> unit) -> unit
(** Oldest-to-newest iteration over the events currently in the ring —
    the read side for in-process analysis ({!Analytics}) as opposed to
    the file exports below. *)

val dropped : t -> int
(** Events overwritten after the ring filled. *)

val to_chrome : t -> string
(** Chrome [trace_event] JSON ([ts]/[dur] in microseconds, full ns
    precision preserved as a fixed-point fraction). One Perfetto track
    per category, numbered by first appearance. *)

val to_jsonl : t -> string
(** One JSON object per line, same fields as {!to_chrome}, no
    wrapper object. *)

val write_chrome : t -> string -> unit
val write_jsonl : t -> string -> unit
