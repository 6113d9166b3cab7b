(** Hierarchical timer wheel: an O(1) event scheduler, no longer on the
    simulation path.

    The engine ran on this wheel until it moved to {!Heap}, which is
    faster at the queue depths the simulator reaches (DESIGN §9). The
    wheel stays only because the repository benchmark's
    [engine.wheel_churn_ns] probe measures it; it goes when that probe
    moves to the heap.

    Events live in a hierarchy of 256-slot wheels (8 bits of the
    timestamp per level); scheduling, cancelling and firing are O(1)
    amortized, with no allocation per event once the preallocated pool
    has warmed up (event records are recycled through a free list).

    Two auxiliary tiers keep the structure fully general:

    - events beyond the wheel horizon ([256^levels] ns ahead of the
      wheel cursor) go to an overflow {!Heap} and are promoted into the
      wheel in bulk when the wheel drains down to them;
    - events behind the wheel cursor (possible when a caller peeks the
      next deadline, parks, and later schedules an earlier event — the
      [Sim.run ~until] pattern) also ride the heap and win the
      head-to-head comparison at pop time.

    Ordering contract (identical to {!Heap}): events pop in
    nondecreasing time order, and events with equal timestamps pop in
    insertion (FIFO) order — across tiers, cascades and promotions.
    [test/engine] pins this with a randomized equivalence suite against
    the engine's heap. *)

type 'a t

type token
(** Handle for cancelling a scheduled event. Tokens are invalidated
    when their event fires (or is cancelled); a stale token is
    recognized and rejected. *)

val create : ?levels:int -> dummy:'a -> unit -> 'a t
(** [create ~dummy ()] makes an empty wheel. [levels] (default 6,
    clamped to \[1, 7\]) sets the horizon: events more than
    [256^levels] ns past the cursor overflow to the far-future heap
    tier. [dummy] fills empty pool slots (it is never returned). *)

val push : 'a t -> Time.t -> 'a -> token
(** [push w time v] schedules [v] at absolute time [time] (≥ 0) and
    returns a cancellation token. *)

val cancel : 'a t -> token -> bool
(** [cancel w tok] removes the event if it has not fired yet; returns
    [false] (and does nothing) when the event already fired, was
    already cancelled, or the token is stale. *)

val pop : 'a t -> (Time.t * 'a) option
(** Remove and return the earliest event, or [None] if empty. *)

val peek_time : 'a t -> Time.t option
(** Timestamp of the earliest event without removing it. *)

val no_time : Time.t
(** Sentinel returned by {!next_time} on an empty wheel ([max_int]). *)

val next_time : 'a t -> Time.t
(** Allocation-free peek: earliest timestamp, or {!no_time} when
    empty. *)

val pop_exn : 'a t -> 'a
(** Allocation-free pop of the earliest event's payload (its time is
    what {!next_time} just returned). Raises [Invalid_argument] when
    empty. *)

val size : 'a t -> int
(** Live (scheduled, not yet fired or cancelled) events. *)

val is_empty : 'a t -> bool

(** {1 Introspection} *)

type stats = {
  cascaded : int;  (** events redistributed to a lower level *)
  far_pushed : int;  (** events that entered the heap tier *)
  promoted : int;  (** heap-tier events bulk-moved into the wheel *)
}

val stats : 'a t -> stats
(** Cumulative structural counters (monotonic since [create]/[clear]);
    used by the engine bench and the edge-case tests. *)
