(** Array-backed FIFO (power-of-two ring) that allocates only on
    growth — the zero-steady-state-allocation replacement for [Queue.t]
    on the mailbox/waiter hot paths. Not thread-safe; single-domain use
    only, like the rest of the engine. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit
(** Append at the tail; amortized allocation-free. *)

exception Empty

val pop : 'a t -> 'a
(** Remove and return the head. Raises {!Empty} when empty. The slot
    is cleared, so the ring holds no reference to a popped value. *)

val peek : 'a t -> 'a
(** The head, left in place. Raises {!Empty} when empty. *)
