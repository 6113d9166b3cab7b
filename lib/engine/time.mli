(** Simulated time.

    All simulation timestamps and durations are integer nanoseconds held in
    a native [int] (63 bits on 64-bit platforms, i.e. ~292 years of range).
    Timestamps ([t]) and durations ([span]) share the representation but
    are kept distinct in the API for readability. *)

type t = int
(** Absolute simulation time in nanoseconds since simulation start. *)

type span = int
(** Duration in nanoseconds. *)

val zero : t

val ns : int -> span
val us : int -> span
val ms : int -> span
val s : int -> span
val minutes : int -> span

val of_float_s : float -> span
(** [of_float_s x] is [x] seconds as a span, rounded to the nearest ns. *)

val to_float_s : span -> float
val to_float_ms : span -> float
val to_float_us : span -> float

val add : t -> span -> t
val diff : t -> t -> span
(** [diff a b] is [a - b]. *)

val mul : span -> int -> span
val div : span -> int -> span

val to_string : t -> string
