(** Measurement collectors for experiments.

    All collectors are cheap to update from the simulation hot path and
    compute summaries lazily. Timestamps are integer nanoseconds of
    virtual time — the representation of [Bmcast_engine.Time.t], which
    re-exports this module as [Bmcast_engine.Stats]. *)

(** Log-bucketed bounded histogram (HDR-style), the store a
    {!Histogram} spills into.

    Fixed memory regardless of sample count: samples are counted in
    geometrically-spaced buckets (ratio [gamma = 1.02]) and percentile
    queries report a bucket's geometric midpoint, so values inside
    [\[1e-9, ~1.2e15)] carry relative error at most
    {!max_relative_error} (~1%). The tracked minimum and maximum stay
    exact, and percentiles 0 and 100 return them. Values below the
    range (including zero and negatives) and above it fall into
    underflow/overflow buckets represented by the exact min/max. *)
module Bounded : sig
  val max_relative_error : float
  (** Worst-case relative error for in-range samples:
      [sqrt gamma - 1.]. *)
end

(** Sample accumulator with exact percentiles for small collections.

    Stores samples verbatim up to [exact_limit]; past that it spills
    into a {!Bounded} log-bucketed histogram (one-time fold of the
    stored samples, sample array freed) so hot-path metrics stay
    memory-bounded at 10k-machine scale. Mean/stddev/min/max remain
    exact after spilling; percentiles carry the {!Bounded} ~1% relative
    error. *)
module Histogram : sig
  type t

  val create : ?exact_limit:int -> unit -> t
  (** [exact_limit] defaults to [8192].
      @raise Invalid_argument if [exact_limit < 1]. *)

  val add : t -> float -> unit
  val count : t -> int

  val is_exact : t -> bool
  (** [true] until the collector spills into bucketed mode. *)

  val mean : t -> float
  (** [0.0] when empty. *)

  val stddev : t -> float
  (** Population standard deviation; [0.0] with fewer than two
      samples. *)

  val min : t -> float
  (** [infinity] when empty. *)

  val max : t -> float
  (** [neg_infinity] when empty. *)

  val percentile : t -> float -> float
  (** [percentile h p] with [p] in [\[0,100\]]; linear interpolation
      between adjacent order statistics, so [percentile h 0.] is the
      minimum and [percentile h 100.] the maximum.

      @raise Invalid_argument if the histogram is empty — callers that
      may observe an empty histogram must use {!percentile_opt} or
      check {!count} first. *)

  val percentile_opt : t -> float -> float option
  (** Like {!percentile} but [None] when the histogram is empty. *)

  val median : t -> float
  (** [percentile t 50.]; raises like {!percentile} when empty. *)

  val clear : t -> unit
end

(** Event-rate meter: record occurrences (optionally weighted) and read
    rates per window. *)
module Rate : sig
  type t

  val create : unit -> t

  val add : t -> int -> float -> unit
  (** Record a weighted event (e.g. bytes transferred). *)

  val total : t -> float

  val count : t -> int
  (** Number of recorded events. *)

  val rate_between : t -> int -> int -> float
  (** Sum of weights in [\[t0, t1)] divided by the window in seconds.
      [0.0] when [t1 <= t0]. *)

  val per_window : t -> width:int -> (int * float) list
  (** Rate (weight per second) for each {e consecutive} window from the
      one holding the first recorded event through the one holding the
      last: windows with no events in between are present with rate
      [0.0], so the result has no time gaps. [\[\]] when no events were
      recorded.

      Windows are half-open [\[k*width, (k+1)*width)] under floor
      division: an event at exactly [k*width] is attributed to window
      [k] (the one it opens), deterministically, including for negative
      timestamps.

      @raise Invalid_argument if [width <= 0]. *)
end
