(* Host speed, so that host times can be reported at a fixed reference
   speed.

   The shared 2-core virtual machine the benchmark was sized on slows
   down when its neighbours get busy, with no steal time to show for
   it: one rep, repeated on one seed, read from 2.9 s to 5.5 s within
   two minutes, and the host's speed moves within a rep as much as
   between reps. So a rep samples the speed while it runs: a timer
   interrupts the simulation every [interval_s] and times a short fixed
   kernel. The rep's speed is the mean over its samples of
   [reference_s] / (kernel time), and its host times are multiplied by
   speed ** [sensitivity]: the time the rep would take on the reference
   host at its usual speed. The kernels' own time is left out of the
   rep's, and so are the words they allocate.

   The kernel uses the standard library only, so no change to the
   simulator can move it. *)

let now_s () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

(* The kernel's usual time inside a rep on the reference host, an
   Intel Xeon 2-core virtual machine. *)
let reference_s = 0.001

let interval_s = 0.025

(* How much more the simulation slows down than the kernel: the slope
   of log(rep time) against log(kernel speed), fitted over reps of
   [burst_unicast] and [guest_io] on one seed each while neighbours
   loaded the host, was 1.67 and 1.39. With 1.5 their scaled times
   spread by 2.7% and 2.5% (standard deviation over mean), against
   14.6% and 6.1% unscaled and 6.2% and 3.0% with 1.0. *)
let sensitivity = 1.5

(* Fixed work: copy and sort 4096 integers through a comparison
   closure, branchy code over 64 KB the simulation evicts between
   samples. The sort allocates the exceptions it raises, 15.5 k words. *)
let unsorted = Array.init 4096 (fun i -> (i * 7919 * 104729) land 0xffffff)

let kernel out =
  Array.blit unsorted 0 out 0 (Array.length unsorted);
  Array.sort (fun (a : int) b -> compare a b) out;
  out.(0)

(* The samples of one rep: how many, and the kernels' summed time,
   speed and allocated words. *)
type sampler = {
  out : int array;
  mutable armed : bool;
  mutable samples : int;
  sums : Float.Array.t;  (** kernel seconds; speeds; kernel words *)
}

(* Built before a rep's set-up, so that building it is not timed. *)
let create () =
  { out = Array.make (Array.length unsorted) 0;
    armed = false;
    samples = 0;
    sums = Float.Array.make 3 0.0 }

let add s i x = Float.Array.set s.sums i (Float.Array.get s.sums i +. x)

let sample s =
  let w0 = Gc.minor_words () and t0 = now_s () in
  ignore (Sys.opaque_identity (kernel s.out) : int);
  let t = now_s () -. t0 in
  add s 0 t;
  add s 1 (reference_s /. t);
  add s 2 (Gc.minor_words () -. w0);
  s.samples <- s.samples + 1

let set_timer interval =
  ignore
    (Unix.setitimer Unix.ITIMER_REAL
       { Unix.it_interval = interval; it_value = interval }
      : Unix.interval_timer_status)

(* Samples every [interval_s] from now until [stop]. *)
let start s =
  s.armed <- true;
  Sys.set_signal Sys.sigalrm (Sys.Signal_handle (fun _ -> if s.armed then sample s));
  set_timer interval_s

(* The handler stays installed: a signal already delivered finds it
   disarmed. *)
let stop s =
  set_timer 0.0;
  s.armed <- false

type reading = {
  kernel_s : float;  (** the kernels' summed time *)
  kernel_words : float;  (** words the kernels allocated *)
  speed : float;  (** 1.0: the reference host at its usual speed *)
  scale : float;  (** what host times are multiplied by *)
}

(* What a stopped sampler read. A rep too short for a sample takes one
   now, after its end. *)
let reading s =
  let kernel_s = Float.Array.get s.sums 0
  and kernel_words = Float.Array.get s.sums 2 in
  if s.samples = 0 then sample s;
  let speed = Float.Array.get s.sums 1 /. float_of_int s.samples in
  { kernel_s; kernel_words; speed; scale = speed ** sensitivity }
