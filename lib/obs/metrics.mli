(** Named-metric registry for the observability layer.

    Subsystems register an instrument once (at attach/boot time) and
    keep the returned handle; updates through the handle are plain
    mutations with no lookup cost. Instruments are keyed by name plus
    sorted [label=value] pairs, so [histogram m ~labels:["disk","ahci"]
    "redirect_latency_ms"] and the same call again return the {e same}
    histogram. JSON export is sorted by key — never by hash-table
    iteration order — so snapshots of a seeded run are byte-stable. *)

type t

val null : t
(** Disabled registry: registrations return fresh throwaway handles
    that still work (so instrumented code needs no branching) but are
    never stored — {!to_json} on [null] is always empty and no state is
    shared between simulations. *)

val create : unit -> t
val enabled : t -> bool

val counter : ?labels:(string * string) list -> t -> string -> float ref
(** Monotonic counter; bump with {!incr}. *)

val gauge : ?labels:(string * string) list -> t -> string -> float ref
(** Last-value gauge; write with {!set}. *)

val histogram : ?labels:(string * string) list -> t -> string -> Stats.Histogram.t

val rate : t -> string -> Stats.Rate.t
(** Time-weighted rate; feed with [Stats.Rate.add r now weight]. *)

val derived : ?labels:(string * string) list -> t -> string -> (unit -> float) -> unit
(** Pull-only gauge: [f] is evaluated each time a snapshot consumer
    ({!iter}, {!to_json}, the timeseries sampler) visits the key, and
    never otherwise — zero hot-path cost. First registration of a key
    wins; re-registering an existing derived key is a no-op, and
    registering over a different instrument kind raises
    [Invalid_argument]. No-op on {!null}. *)

val incr : ?by:float -> float ref -> unit
val set : float ref -> float -> unit

val size : t -> int
(** Number of registered instruments. *)

val key : string -> (string * string) list -> string
(** The registry key for a name + labels ([name|k=v|...], labels
    sorted). Exposed for tests and snapshot consumers. *)

(** Typed snapshot of one instrument. Counters/gauges surface their
    current value (derived gauges are evaluated at snapshot time);
    histograms and rates expose the live instrument for richer reads. *)
type view =
  | V_counter of float
  | V_gauge of float
  | V_histogram of Stats.Histogram.t
  | V_rate of Stats.Rate.t

val scalar : view -> float
(** Collapse a view to one number: counter/gauge value, histogram
    observation count, rate running total. This is what the timeseries
    sampler records per key. *)

val iter : ?filter:(string -> bool) -> t -> (string -> view -> unit) -> unit
(** Visit instruments in ascending key order (byte-stable across runs).
    [filter] prunes by key {e before} derived closures are evaluated. *)

val fold : ?filter:(string -> bool) -> t -> (string -> view -> 'a -> 'a) -> 'a -> 'a
(** {!iter} with an accumulator; same ordering and filter contract. *)

val find : t -> string -> view option
(** Look up one instrument by its full registry key. *)

val to_json : ?filter:(string -> bool) -> t -> string
(** Snapshot of every instrument as a JSON object keyed by metric key:
    counters/gauges as numbers, histograms as
    [{count,mean,stddev,min,max,p50,p90,p99}] (just [{count:0}] when
    empty), rates as [{total,events,windows}] where [windows] is
    [[seconds, weight-per-second], ...] over consecutive 1-second
    windows. Built on {!iter}, so [filter] restricts the snapshot to
    matching keys. Safe to call mid-run. *)

val write : ?filter:(string -> bool) -> t -> string -> unit
(** [write t path] dumps {!to_json} to [path]. *)

(**/**)

(* Export plumbing shared with the rest of lib/obs so every JSON writer
   formats strings and floats identically (byte-stable exports). *)
val buf_add_json_string : Buffer.t -> string -> unit
val buf_add_float : Buffer.t -> float -> unit
