(** kernbench: parallel kernel compile (§5.4).

    Models `make -j12` of a minimal 2.6.32 configuration: a queue of
    compile tasks, each reading a source file, burning compiler CPU
    (low memory intensity — compilers are cache-friendly) and writing an
    object file. Calibrated to ~16 s on the paper's 12-core bare-metal
    node. During BMcast deployment the guest's reads contend with
    background-copy multiplexing; that, plus the deployment threads'
    CPU steal, is the paper's +8 %. *)

type result = {
  elapsed : Bmcast_engine.Time.span;
  tasks : int;
}

val run :
  Bmcast_platform.Runtime.t ->
  ?jobs:int ->
  ?tasks:int ->
  unit ->
  result
(** Reads sources from 4 GB into the disk. Defaults: 12 jobs, 384
    compile units (process context). *)
