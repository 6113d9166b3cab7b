module Sim = Bmcast_engine.Sim
module Time = Bmcast_engine.Time

type exit_reason =
  | Pio
  | Mmio
  | Cpuid
  | Preempt_timer
  | Control_reg
  | Init_sipi
  | Other

let exit_index = function
  | Pio -> 0
  | Mmio -> 1
  | Cpuid -> 2
  | Preempt_timer -> 3
  | Control_reg -> 4
  | Init_sipi -> 5
  | Other -> 6

type core = {
  sim : Sim.t;
  unavailable_until : Time.t ref;  (* shared with [available]'s predicate *)
  available : Sim.wait_queue;  (* [run]s stalled until the core is available *)
  mutable stall_time : Time.span;
  mutable wakeup_armed : bool;
  mutable interference_seen : bool;
}

type t = {
  sim : Sim.t;
  cores_arr : core array;
  exit_counts : int array;  (* by [exit_index] *)
  mutable exit_time : Time.span;
}

let create sim ~cores =
  if cores <= 0 then invalid_arg "Cpu.create: cores must be positive";
  let mk _ =
    let until = ref Time.zero in
    { sim;
      unavailable_until = until;
      available = Sim.wait_queue sim (fun () -> Sim.now sim >= !until);
      stall_time = 0;
      wakeup_armed = false;
      interference_seen = false }
  in
  { sim;
    cores_arr = Array.init cores mk;
    exit_counts = Array.make 7 0;
    exit_time = 0 }

let num_cores t = Array.length t.cores_arr

let core t i =
  if i < 0 || i >= Array.length t.cores_arr then
    invalid_arg (Printf.sprintf "Cpu.core: no core %d" i);
  t.cores_arr.(i)

let is_available (c : core) = Sim.now c.sim >= !(c.unavailable_until)

(* Arrange a wake-up when the core becomes available again; idempotent
   for a given deadline extension (re-arms if the window was extended). *)
let arm_wakeup (c : core) =
  if not c.wakeup_armed then begin
    c.wakeup_armed <- true;
    let rec fire_at deadline =
      Sim.schedule c.sim deadline (fun () ->
          if is_available c then begin
            c.wakeup_armed <- false;
            Sim.wake_all c.available
          end
          else fire_at !(c.unavailable_until))
    in
    fire_at !(c.unavailable_until)
  end

let enable_interference t =
  Array.iter (fun c -> c.interference_seen <- true) t.cores_arr

let set_unavailable_until (c : core) until =
  if not c.interference_seen then
    invalid_arg "Cpu.set_unavailable_until: call enable_interference first";
  if until > !(c.unavailable_until) then begin
    c.unavailable_until := until;
    arm_wakeup c
  end

(* A top-level loop, so a burst builds no closure. *)
let rec run_for (c : core) remaining =
  if remaining > 0 then
    if not c.interference_seen then Sim.sleep remaining
    else if is_available c then begin
      (* Run until done or until a preemption window begins.  Windows
         are only known once set, so run in bounded slices when a
         future window could cut in; a 1 ms slice bounds the error. *)
      let slice = min remaining (Time.ms 1) in
      Sim.sleep slice;
      (* If a window opened mid-slice we charge it as stall below on
         the next iteration. *)
      run_for c (remaining - slice)
    end
    else begin
      let stall_start = Sim.clock () in
      Sim.wait c.available;
      c.stall_time <- c.stall_time + Time.diff (Sim.clock ()) stall_start;
      run_for c remaining
    end

let run (c : core) span =
  if span < 0 then invalid_arg "Cpu.run: negative span";
  run_for c span

let stall_time (c : core) = c.stall_time

let record_exit t reason ~cost =
  let i = exit_index reason in
  t.exit_counts.(i) <- t.exit_counts.(i) + 1;
  t.exit_time <- t.exit_time + cost

let exits t reason = t.exit_counts.(exit_index reason)
let total_exits t = Array.fold_left ( + ) 0 t.exit_counts
let exit_time t = t.exit_time

let reset_exit_counters t =
  Array.fill t.exit_counts 0 (Array.length t.exit_counts) 0;
  t.exit_time <- 0
