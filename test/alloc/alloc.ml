(* Allocation readings for the test suites' memory sections: words a
   call allocates, and words allocated over the steps of a running
   simulation. Both count minor words plus words allocated straight
   into the major heap, exactly. *)

module Sim = Bmcast_engine.Sim
module Time = Bmcast_engine.Time

(* Words allocated so far. Between minor collections OCaml 5.1's
   [Gc.allocated_bytes] advances one byte per word allocated, not
   eight, and catches up only at the next minor collection; one before
   each reading makes it exact. Never inlined, so its result is boxed
   wherever it is called and [reading_cost] holds everywhere. *)
let[@inline never] reading () =
  Gc.minor ();
  Gc.allocated_bytes () /. float_of_int (Sys.word_size / 8)

(* What a reading allocates after it reads (its boxed counters and
   result), which the next reading counts: 14 words. *)
let reading_cost =
  let before = reading () in
  reading () -. before

(* Words [f ()] allocates. *)
let allocated_words f =
  let before = reading () in
  f ();
  reading () -. before -. reading_cost

(* Words allocated over [n] runs of [step] in a job, each [every] (1 us
   by default) apart, after [warm] runs that let the heap, the rings and
   the pools reach their size. Both readings are taken inside the run,
   so [Sim.run]'s own setup is not counted. *)
let words_over_steps ?(every = Time.us 1) sim ~warm ~n step =
  let words = Array.make 2 0.0 and i = ref 0 and self = ref None in
  let j =
    Sim.job sim ~name:"waker" (fun () ->
        if !i = warm then words.(0) <- reading ();
        if !i = warm + n then words.(1) <- reading ()
        else begin
          step ();
          incr i;
          Sim.sleep_job (Option.get !self) every
        end)
  in
  self := Some j;
  Sim.start_job j;
  Sim.run sim;
  words.(1) -. words.(0) -. reading_cost
