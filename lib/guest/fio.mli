(** Flexible-IO-Tester-style storage throughput benchmark (§5.5.2).

    Sequential direct I/O in large blocks through the runtime's block
    driver, reported in MB/s — the paper's fio configuration (200 MB in
    1 MB blocks). *)

type result = { throughput_mb_s : float; ops : int; elapsed : Bmcast_engine.Time.span }

val seq_read :
  Bmcast_platform.Runtime.t ->
  ?total_bytes:int ->
  ?block_bytes:int ->
  ?start_lba:int ->
  unit ->
  result
(** Defaults: 200 MB, 1 MB blocks, LBA 0 (process context). *)

val seq_write :
  Bmcast_platform.Runtime.t -> ?total_bytes:int -> ?start_lba:int -> unit -> result
(** Writes in 1 MB blocks. Defaults: 200 MB, LBA 0 (process context). *)
