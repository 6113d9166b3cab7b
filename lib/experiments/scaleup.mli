(** Simultaneous multi-instance provisioning (§5.1's scale-up claim).

    "BMcast transferred only 72 MB of the disk image while booting the
    OS [...] there is more room to scale-up the number of instances
    booted simultaneously." This experiment provisions N instances at
    once against one storage server and measures each instance's
    time-to-OS-ready, for BMcast streaming deployment vs. full image
    copying. Image copying saturates the server's egress port with N
    full-image streams; BMcast only moves each instance's boot working
    set up front. *)

type result = {
  instances : int;
  strategy : string;
  mean_ready_s : float;
  max_ready_s : float;
}

val measure :
  ?image_gb:int -> ?counts:int list -> unit -> result list
(** Defaults: 8-GB images, N in 1, 2, 4, 8. *)

val run : unit -> unit
(** The default {!measure} sweep as a report section. *)
