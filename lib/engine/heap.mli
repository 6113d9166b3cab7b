(** The simulation's event queue: a min-heap of timestamped values.

    Values pop in nondecreasing time order, and values with equal
    timestamps pop in insertion (FIFO) order, which keeps the simulation
    deterministic.

    A 4-ary heap sorts unboxed [int] keys and keeps the values in a
    free-listed pool: once the queue has grown to its peak size, a
    {!push}/{!next_time}/{!pop_exn} cycle allocates nothing. A popped
    value is no longer reachable from the queue.

    Values that share a timestamp share a heap entry. A push at the time
    of the newest entry, while that entry still holds a value, links the
    value behind the entry's last one; any other push adds an entry. A
    pop takes the first value of the earliest entry and sifts only when
    that entry runs out. Only the newest entry ever grows, so every
    value of an older entry at the same time was pushed first, and the
    order above is exact. {!size} counts values, not entries. *)

type 'a t

val create : unit -> 'a t

val push : 'a t -> Time.t -> 'a -> unit
(** [push h time v] inserts [v] with priority [time]. Raises
    [Invalid_argument] past 2{^24} queued values or 2{^38} entries over
    the queue's lifetime (a push that joins the newest entry does not
    count). *)

val no_time : Time.t
(** Sentinel returned by {!next_time} on an empty queue ([max_int]). *)

val next_time : 'a t -> Time.t
(** Allocation-free peek: the earliest timestamp, or {!no_time} when
    empty. *)

val pop_exn : 'a t -> 'a
(** Allocation-free pop of the earliest value (its time is what
    {!next_time} just returned). Raises [Invalid_argument] when
    empty. *)

val pop : 'a t -> (Time.t * 'a) option
(** Remove and return the earliest event, or [None] if empty. *)

val peek_time : 'a t -> Time.t option
(** Timestamp of the earliest event without removing it. *)

val peek : 'a t -> (Time.t * 'a) option
(** Earliest event without removing it. *)

val size : 'a t -> int
val is_empty : 'a t -> bool
