(** Declarative fleet-health watchdogs over sampled metrics.

    A watchdog holds a set of rules evaluated after every
    {!Timeseries} sweep ({!attach} subscribes it). Each rule matches
    every tracked key that starts with its key prefix and fires an
    {!alert} once per breach episode — on the sample that completes
    the breach, re-arming only after the condition clears. Evaluation
    reads only sampled virtual-time state, so under a fixed seed every
    alert fires at the same virtual time on every run.

    Detection latency: fault injectors arm ground truth with
    {!expect}; the next alert resolves all armed expectations into
    {!detection}s carrying [alert time - fault time]. [lib/faults]
    wires this automatically, making "server crash → watchdog alert"
    a measured quantity bounded by the sampling interval. *)

type t

type cmp = Above | Below

type rule

val threshold : ?hold:int -> name:string -> key:string -> cmp -> float -> rule
(** Fire when the sampled value is above/below the bound for [hold]
    consecutive samples (default 1). [key] matches its exact metric
    name with or without labels ([vblade.up] matches
    [vblade.up|server=x] but not [vblade.uplink_bytes]); a key ending
    in ['.'] or ['|'] is a free prefix. The rule applies to every
    matching series independently.
    @raise Invalid_argument when [hold < 1]. *)

val rate_of_change : name:string -> key:string -> cmp -> float -> rule
(** Fire when the per-second derivative between the two most recent
    samples is above/below the bound. *)

val absent : ?after:int -> name:string -> key:string -> unit -> rule
(** Fire when {e no} tracked key matches the prefix for [after]
    consecutive sweeps (default 3) — the "metric never showed up /
    vanished" detector. @raise Invalid_argument when [after < 1]. *)

val stale : ?after:int -> name:string -> key:string -> unit -> rule
(** Fire when a matching series' value has not changed for [after]
    consecutive samples (default 3) — progress-stall detection for
    monotone counters. @raise Invalid_argument when [after < 2]. *)

val rule_of_string : string -> rule
(** Parse a [--rule] spec. Grammar ([NAME:] optional, defaults to the
    spec itself):
    - [NAME:KEY>VAL] / [NAME:KEY<VAL] — threshold; append [@H] to
      require [H] consecutive breaching samples.
    - [NAME:rate(KEY)>VAL] / [NAME:rate(KEY)<VAL] — rate of change
      per second.
    - [NAME:absent(KEY)@N] — no matching key for [N] sweeps.
    - [NAME:stale(KEY)@N] — value unchanged for [N] samples.
    @raise Invalid_argument on malformed specs. *)

val rule_name : rule -> string

val create : rule list -> t

val attach : t -> Timeseries.t -> unit
(** Subscribe evaluation to every sweep of the given timeseries. *)

val set_trace : t -> Trace.t -> unit
(** Mirror every alert into the trace as an instant event
    (category ["watchdog"], args rule/key/value/msg). *)

type alert = {
  a_rule : string;
  a_key : string;
  a_at : int;  (** virtual ns of the sweep that fired *)
  a_value : float;  (** offending value (derivative for rate rules) *)
  a_msg : string;
}

type detection = {
  d_label : string;  (** expectation label, e.g. ["server_crash"] *)
  d_rule : string;
  d_key : string;
  d_fault_at : int;
  d_alert_at : int;
}

val expect : t -> label:string -> now:int -> unit
(** Arm a ground-truth incident at virtual time [now]; the next alert
    at [t >= now] resolves it into a {!detection}. *)

val alerts : t -> alert list
(** Chronological. *)

val alert_count : t -> int

val detections : t -> detection list
(** Chronological by alert time. *)

val detection_latency_ns : detection -> int

val pending_expectations : t -> int
(** Armed incidents not yet resolved by any alert. *)

val firing : t -> (string * string) list
(** Currently-breaching (rule name, key) pairs, sorted. *)

val alerts_json : t -> string
(** [{"alerts":[...],"detections":[...]}] — embedded in
    [BENCH_fleet.json] and [bmcastctl] outputs. *)
