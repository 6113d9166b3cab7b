(** Provisioning analytics over the trace stream.

    Folds {!Trace.event}s into per-machine boot-stage breakdowns,
    fleet-wide per-stage percentile tables, critical-path attribution
    (which stage dominated each boot) and SLO evaluation.

    Input convention: complete spans in category ["boot"] whose name is
    a pipeline stage and whose args carry [("m", Str machine)]. Stages
    tile each machine's boot timeline sequentially
    ([queue → vmm_init → discover → copy → devirt]), so per machine the
    stage durations sum to the boot total. Spans in {e other}
    categories tagged with both ["m"] and ["stage"] args feed a
    per-operation latency table instead (AoE commands, copy-on-read
    redirects, background-copy chunks).

    All outputs derive from virtual-time trace events only:
    {!to_json}/{!to_text} are byte-identical across same-seed runs. *)

type t

val stage_order : string list
(** Canonical pipeline order, ["queue"] through ["devirt"]; unknown
    stages sort after these, alphabetically. *)

val of_trace : ?slo_s:float -> Trace.t -> t
(** Fold every event of the trace. [slo_s] is the provisioning-time
    target in seconds (default [120.0]). *)

val machine_count : t -> int

val machine_names : t -> string list
(** Sorted. *)

val stage_ms : t -> string -> (string * float) list
(** Per-stage durations (ms) of one machine, in pipeline order; [[]]
    for unknown machines. *)

val boot_total_ms : t -> string -> float option
(** Sum of the machine's stage durations. *)

type stage_row = {
  stage : string;
  count : int;
  p50_ms : float;
  p90_ms : float;
  p99_ms : float;
  max_ms : float;
}

val stage_rows : t -> stage_row list
(** Fleet-wide per-stage latency table, in pipeline order. *)

val critical_path : t -> (string * int) list
(** [(stage, boots)] — how many boots each stage dominated; sorted by
    count descending. *)

type slo = {
  target_s : float;
  boots : int;
  violations : int;  (** boots whose total exceeded the target *)
  wasted_ms : float;
      (** provisioning time beyond the target, summed over violating
          boots (server-ms burned past budget) *)
}

val slo : t -> slo

type op_row = {
  opname : string;  (** ["cat.name"] *)
  ocount : int;
  op50_ms : float;
  op99_ms : float;
  ototal_ms : float;
}

val op_rows : t -> op_row list
(** Sorted by name. *)

val to_text : t -> string
val to_json : t -> string
