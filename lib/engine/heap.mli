(** Binary min-heap of timestamped events.

    Events with equal timestamps pop in insertion (FIFO) order, which keeps
    the simulation deterministic. *)

type 'a t

val create : unit -> 'a t

val push : 'a t -> Time.t -> 'a -> unit
(** [push h time v] inserts [v] with priority [time]. *)

val pop : 'a t -> (Time.t * 'a) option
(** Remove and return the earliest event, or [None] if empty. *)

val peek_time : 'a t -> Time.t option
(** Timestamp of the earliest event without removing it. *)

val peek : 'a t -> (Time.t * 'a) option
(** Earliest event without removing it. *)

val size : 'a t -> int
val is_empty : 'a t -> bool
