module Time = Bmcast_engine.Time
module Cpu = Bmcast_hw.Cpu
module Tlb = Bmcast_hw.Tlb

type t = {
  mutable tlb_mode : Tlb.mode;
  mutable steal : float;
  mutable exit_overhead : float;
  mutable yield_cost : Time.span;
}

let bare () =
  { tlb_mode = Tlb.Native; steal = 0.0; exit_overhead = 0.0; yield_cost = 0 }

let create ~tlb_mode ~steal ~exit_overhead =
  if steal < 0.0 || steal >= 1.0 then
    invalid_arg "Cpu_model.create: steal must be in [0,1)";
  { tlb_mode; steal; exit_overhead; yield_cost = 0 }

let set_yield_cost t c = t.yield_cost <- c

let clear t =
  t.tlb_mode <- Tlb.Native;
  t.steal <- 0.0;
  t.exit_overhead <- 0.0;
  t.yield_cost <- 0

let ns_per_s = float_of_int (Time.s 1)

(* [Time.of_float_s (Time.to_float_s work *. Tlb.slowdown ... *. ...)],
   computed in one body: with separate compilation a float returned
   from or passed to another module is boxed, and a guest CPU burst
   must not allocate. [Tlb.tax] returns a preallocated constant. *)
let stretch t ~work ~mem_intensity =
  Tlb.check_intensity mem_intensity;
  let f =
    (1.0 +. (mem_intensity *. Tlb.tax t.tlb_mode))
    *. (1.0 +. t.exit_overhead)
    /. (1.0 -. t.steal)
  in
  int_of_float (Float.round (float_of_int work /. ns_per_s *. f *. ns_per_s))

let run cpu t ~core ~work ~mem_intensity =
  Cpu.run (Cpu.core cpu core) (stretch t ~work ~mem_intensity)

let yield cpu t ~core =
  if t.yield_cost > 0 then begin
    Cpu.record_exit cpu Cpu.Other ~cost:t.yield_cost;
    Cpu.run (Cpu.core cpu core) t.yield_cost
  end
  else Bmcast_engine.Sim.yield ()
