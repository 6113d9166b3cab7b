(** One-shot latches for simulation processes. To wait for a condition
    many processes share, use {!Sim.wait_queue}. *)

(** A level-triggered latch: once [set], all current and future waiters
    pass immediately. *)
module Latch : sig
  type t

  val create : unit -> t
  val set : t -> unit
  val is_set : t -> bool

  val wait : t -> unit
  (** Block until the latch is set (process context). *)

  val on_set : t -> (unit -> unit) -> unit
  (** Run a callback when the latch is set (immediately if it already
      is). Callable from any context. *)
end
