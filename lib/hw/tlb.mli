(** TLB / nested-paging cost model.

    The paper attributes BMcast's small deployment-phase overhead mainly
    to TLB pollution under nested paging: "the number of TLB misses
    increased up to 5 times and the latency on TLB misses doubled due to
    the two-dimensional page walks" (§5.2), yielding ~6% slowdown on the
    memory benchmark and ~5% on memcached. KVM with a host OS adds cache
    pollution on top (35% at 16 KB blocks in the memory benchmark).

    [slowdown] converts a workload's memory intensity (fraction of time
    bound on memory accesses, in [0,1]) into a multiplicative execution
    factor >= 1. *)

type mode =
  | Native  (** no virtualization: factor 1 *)
  | Nested_paging  (** thin VMM (BMcast during deployment) *)
  | Nested_paging_host  (** full VMM + host OS cache pollution (KVM) *)

val slowdown : mode -> mem_intensity:float -> float
(** Multiplicative execution-time factor, >= 1.0:
    [1 +. mem_intensity *. tax mode].
    Raises [Invalid_argument] unless [0 <= mem_intensity <= 1]. *)

val tax : mode -> float
(** Slowdown at [mem_intensity = 1], minus one: 0 for [Native]. A
    constant per mode, so a caller in another module can compute
    {!slowdown} in its own body without a boxed float crossing the
    module boundary. *)

val check_intensity : float -> unit
(** Raises what {!slowdown} raises on an intensity outside [0, 1]. *)
