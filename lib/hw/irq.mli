(** Interrupt controller model (flat APIC-like vector space).

    Devices raise vectors; registered handlers run after a small delivery
    latency. BMcast's device mediators deliberately avoid injecting
    virtual interrupts — they arrange for the physical device to generate
    real ones (redirection) or poll instead of using interrupts at all
    (multiplexing) — so this controller is never virtualized. *)

type t

val create : Bmcast_engine.Sim.t -> t

(** Vectors are non-negative: every function below raises
    [Invalid_argument] on a negative one. Per-vector state is kept in
    arrays as long as the highest vector registered or raised. *)

val register : t -> vec:int -> (unit -> unit) -> unit
(** Install the ISR for a vector (replacing any previous one). The ISR
    runs as a simulation process named [isr-vec<N>], built here, once
    (see {!Bmcast_engine.Sim.process}): a delivery allocates nothing.
    Deliveries closer together than the ISR's run overlap, each on its
    own fiber. *)

val unregister : t -> vec:int -> unit

val raise_irq : t -> vec:int -> unit
(** Deliver an interrupt: the ISR is scheduled after the delivery
    latency. Unhandled vectors are counted as spurious. *)

val delivered : t -> vec:int -> int
(** Number of deliveries so far on a vector (0 for one never raised). *)

val spurious : t -> int
(** Deliveries that found no ISR registered. *)

val delivery_latency : Bmcast_engine.Time.span
(** Fixed modelled LAPIC delivery latency. *)
