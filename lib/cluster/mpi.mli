(** MPI collective operations over InfiniBand (§5.3).

    Standard algorithms (MPICH-style) over the {!Bmcast_net.Ib}
    messaging layer: ring allgather, recursive-doubling allreduce,
    binomial broadcast/gather/scatter/reduce, dissemination barrier and
    pairwise alltoall. Because every message posting pays the
    endpoint's virtualization overhead, collectives with many
    small sequential messages (allgather) amplify a per-op adder the
    way Figure 6 shows for KVM, while BMcast endpoints stay at
    bare-metal latency. *)

type comm

val create : ?compute:(bytes:int -> unit) -> Bmcast_net.Ib.endpoint array -> comm
(** A communicator over the given endpoints (rank = index). Needs at
    least 2 ranks. [compute] runs the reduction operator after each
    receive in Reduce/Allreduce (stack-dependent: virtualization taxes
    apply to it). *)

type collective =
  | Barrier
  | Bcast
  | Gather
  | Scatter
  | Reduce
  | Allgather
  | Allreduce
  | Alltoall

val all_collectives : collective list
val name : collective -> string

val run : comm -> collective -> bytes:int -> Bmcast_engine.Time.span
(** Execute one collective with per-rank payload [bytes] and return the
    wall time until the slowest rank finishes (process context). *)

val latency :
  comm -> collective -> bytes:int -> ?iterations:int -> unit ->
  float
(** OSU-style mean latency in microseconds over repeated runs
    (default 20 iterations; process context). *)
